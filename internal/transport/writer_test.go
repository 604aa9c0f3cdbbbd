package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// frameBody is the body frame id carries in the writer tests: n bytes
// derived from id, so a swapped or damaged body shows.
func frameBody(id uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(id) ^ byte(i)
	}
	return b
}

// readFrames reads n frames from r in the background and reports whether
// each carried a new id and the body frameBody gives that id.
func readFrames(r io.Reader, n int, sizes map[uint64]int) <-chan error {
	done := make(chan error, 1)
	go func() {
		seen := make(map[uint64]bool)
		for i := 0; i < n; i++ {
			id, _, body, err := readFrame(r)
			if err != nil {
				done <- err
				return
			}
			if seen[id] || !bytes.Equal(body, frameBody(id, sizes[id])) {
				done <- errors.New("frame duplicated or damaged")
				return
			}
			seen[id] = true
		}
		done <- nil
	}()
	return done
}

// TestFrameWriterConcurrentFramesAllArrive: G writers each write one frame
// at once and stop. The peer must read all G intact without any later write
// to push them out, so no frame is stranded in the pending buffer: not the
// frames that rode a flush already in flight, nor those whose writers waited
// on the bound.
func TestFrameWriterConcurrentFramesAllArrive(t *testing.T) {
	const G = 32
	local, peer := net.Pipe() // nothing reads peer yet: the first flush blocks
	defer local.Close()
	defer peer.Close()
	w := newFrameWriter(local)
	sizes := make(map[uint64]int)
	for id := uint64(1); id <= G; id++ {
		sizes[id] = int(id) * 311 // ≈160 KiB in all: more than the bound
	}
	var wg sync.WaitGroup
	write := func(id uint64) {
		defer wg.Done()
		if err := w.write(id, flagFinal, frameBody(id, sizes[id])); err != nil {
			t.Errorf("write %d: %v", id, err)
		}
	}
	wg.Add(G)
	go write(1)
	waitWriter(w, func() bool { return w.flushing })
	for id := uint64(2); id <= G; id++ {
		go write(id)
	}
	waitWriter(w, func() bool { return len(w.buf) >= connBufSize })
	got := readFrames(peer, G, sizes)
	returned := make(chan struct{})
	go func() {
		wg.Wait()
		close(returned)
	}()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("frames stranded: a writer is still waiting on the bound")
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frames stranded: the peer did not receive every frame written")
	}
}

// waitWriter polls until cond, read under the writer's lock, holds.
func waitWriter(w *frameWriter, cond func() bool) {
	for {
		w.mu.Lock()
		ok := cond()
		w.mu.Unlock()
		if ok {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameWriterFailureWakesWaiters: with the flusher stuck in a write and
// the bound pending, further writers wait; the failed write must wake and
// fail every one of them, and every later write.
func TestFrameWriterFailureWakesWaiters(t *testing.T) {
	local, peer := net.Pipe() // nothing reads peer: the flusher blocks
	defer local.Close()
	w := newFrameWriter(local)
	flusher := make(chan error, 1)
	go func() { flusher <- w.write(1, flagFinal, frameBody(1, 16)) }()
	waitWriter(w, func() bool { return w.flushing })
	// Rides the blocked flush: returns at once and leaves the bound pending.
	if err := w.write(2, flagFinal, frameBody(2, connBufSize)); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	errs := make(chan error, waiters)
	for id := uint64(3); id < 3+waiters; id++ {
		go func() { errs <- w.write(id, flagFinal, frameBody(id, 16)) }()
	}
	select {
	case err := <-errs:
		t.Fatalf("a write returned (%v) with the bound pending and the flusher stuck", err)
	case <-time.After(50 * time.Millisecond):
	}
	peer.Close()
	for i := 0; i < waiters+1; i++ {
		var err error
		select {
		case err = <-errs:
		case err = <-flusher:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d writes still blocked after the connection failed", waiters+1-i, waiters+1)
		}
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("write after failure returned %v, want the write error", err)
		}
	}
	if err := w.write(99, flagFinal, nil); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("later write returned %v, want the write error", err)
	}
}

// TestFrameWriterLargeFrame: a frame larger than the bound still goes out
// whole, and the writer keeps working after it.
func TestFrameWriterLargeFrame(t *testing.T) {
	local, peer := net.Pipe()
	defer local.Close()
	defer peer.Close()
	w := newFrameWriter(local)
	sizes := map[uint64]int{1: 4*connBufSize + 3, 2: 10}
	got := readFrames(peer, 2, sizes)
	for id := uint64(1); id <= 2; id++ {
		if err := w.write(id, flagFinal, frameBody(id, sizes[id])); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("large frame never arrived")
	}
}
