package transport

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"sssdb/internal/proto"
)

// demuxFrame is one response frame of a FuzzDemux script.
type demuxFrame struct {
	id    uint64
	flags uint8
	body  []byte
}

// The ids a FuzzDemux script names: a pending plain call, a pending
// streaming call, a streaming call its caller abandoned, and an id never
// asked for.
var demuxIDs = [...]uint64{1, 2, 3, 4}

// demuxBodies are the bodies a script picks from, by index: a row chunk whose
// one row's id is the frame's position, the same with a proof, an empty row
// answer, an OK, an error, and bytes that decode to nothing.
func demuxBody(sel byte, pos int) []byte {
	row := []proto.Row{{ID: uint64(pos + 1), Cells: [][]byte{{byte(pos)}}}}
	switch sel % 6 {
	case 0:
		return proto.Encode(&proto.RowsResponse{Columns: []string{"c"}, Rows: row})
	case 1:
		return proto.Encode(&proto.RowsResponse{Columns: []string{"c"}, Rows: row, Proof: []byte("proof")})
	case 2:
		return proto.Encode(&proto.RowsResponse{Columns: []string{"c"}})
	case 3:
		return proto.Encode(&proto.OKResponse{Affected: 1})
	case 4:
		return proto.Encode(&proto.ErrorResponse{Code: proto.CodeInternal, Msg: "no"})
	}
	return []byte{0xff}
}

// parseDemuxScript reads a script as three bytes a frame — which id, the
// flags, which body — and at most 64 frames.
func parseDemuxScript(script []byte) []demuxFrame {
	var frames []demuxFrame
	for i := 0; i+3 <= len(script) && len(frames) < 64; i += 3 {
		frames = append(frames, demuxFrame{
			id:    demuxIDs[int(script[i])%len(demuxIDs)],
			flags: script[i+1],
			body:  demuxBody(script[i+2], len(frames)),
		})
	}
	return frames
}

// demuxScript writes frames as a script: f(id index, flags, body index).
func demuxScript(frames ...[3]byte) []byte {
	var s []byte
	for _, f := range frames {
		s = append(s, f[:]...)
	}
	return s
}

// describe names a message for comparison: a row answer by its header, row
// ids and proof, anything else by its type.
func describe(m proto.Message) string {
	rr, ok := m.(*proto.RowsResponse)
	if !ok {
		return fmt.Sprintf("%T", m)
	}
	ids := make([]uint64, len(rr.Rows))
	for i, r := range rr.Rows {
		ids[i] = r.ID
	}
	return fmt.Sprintf("rows %v %v proof %q", rr.Columns, ids, rr.Proof)
}

// demuxOutcome is what the two pending calls saw: how the plain call ended,
// the chunks the streaming call yielded, and how it ended ("err" for a
// failed session, "done" for a stream ended by its final chunk).
type demuxOutcome struct {
	plain    string
	streamed []string
	stream   string
}

// modelDemux is what the demux must do with frames: a frame that breaks the
// protocol fails the session, a frame for a call no longer pending is
// dropped, a chunk goes to its stream or is merged into its plain call's
// answer, and a final frame completes its call.
func modelDemux(frames []demuxFrame) demuxOutcome {
	out := demuxOutcome{plain: "err", stream: "err"}
	pending := map[uint64]bool{1: true, 2: true}
	var partial *proto.RowsResponse
	for _, f := range frames {
		msg, err := proto.Decode(f.body)
		rr, isRows := msg.(*proto.RowsResponse)
		chunk, final := f.flags&flagChunk != 0, f.flags&flagFinal != 0
		if err != nil || chunk && !isRows || !chunk && !final {
			break
		}
		if !pending[f.id] {
			continue
		}
		if final {
			delete(pending, f.id)
		}
		switch {
		case f.id == 2 && chunk:
			if out.streamed = append(out.streamed, describe(rr)); final {
				out.stream = "done"
			}
		case f.id == 2:
			out.stream = describe(msg)
		case chunk:
			if partial = proto.MergeRowsChunk(partial, rr); final {
				out.plain = describe(partial)
			}
		default:
			out.plain = describe(msg)
		}
	}
	return out
}

// FuzzDemux feeds a session's reader (readLoop), over net.Pipe, an arbitrary
// sequence of response frames while a plain call and a streaming call are
// pending. The reader must never panic or block; the plain call completes
// exactly once; the stream yields only its own row chunks, in order; and a
// chunk that is not rows, or an unchunked frame that is not final, fails the
// session — exactly as modelDemux says.
func FuzzDemux(f *testing.F) {
	const plain, stream, abandoned, unknown = 0, 1, 2, 3
	const rows, proved, empty, ok, bad, garbage = 0, 1, 2, 3, 4, 5
	final, chunk, last := byte(flagFinal), byte(flagChunk), byte(flagChunk|flagFinal)
	for _, seed := range [][]byte{
		// A whole answer to each call.
		demuxScript([3]byte{plain, final, rows}, [3]byte{stream, final, rows}),
		// A three-chunk answer to each, the proof on its last chunk.
		demuxScript([3]byte{stream, chunk, rows}, [3]byte{plain, chunk, rows}, [3]byte{stream, chunk, rows},
			[3]byte{plain, chunk, rows}, [3]byte{stream, last, proved}, [3]byte{plain, last, proved}),
		// An empty final chunk, and an error ending a stream mid-way.
		demuxScript([3]byte{plain, chunk, rows}, [3]byte{plain, last, empty},
			[3]byte{stream, chunk, rows}, [3]byte{stream, final, bad}),
		// A late frame for an abandoned id, and frames for an unknown one.
		demuxScript([3]byte{abandoned, chunk, rows}, [3]byte{abandoned, final, ok},
			[3]byte{unknown, final, rows}, [3]byte{plain, final, ok}, [3]byte{stream, last, empty}),
		// Frames that break the protocol.
		demuxScript([3]byte{stream, chunk, rows}, [3]byte{unknown, chunk, ok}, [3]byte{plain, final, ok}),
		demuxScript([3]byte{plain, 0, rows}),
		demuxScript([3]byte{stream, last, garbage}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		frames := parseDemuxScript(script)
		want := modelDemux(frames)

		client, server := net.Pipe()
		s := &session{nc: client, br: bufio.NewReader(client), w: newFrameWriter(client),
			stats: &counters{}, pending: make(map[uint64]*pendingCall)}
		calls := make([]*pendingCall, 3)
		for i := range calls {
			calls[i] = &pendingCall{done: make(chan callResult, 1)}
			if i > 0 {
				calls[i].stream, calls[i].gone = make(chan *proto.RowsResponse, streamWindow), make(chan struct{})
			}
			s.pending[demuxIDs[i]] = calls[i]
		}
		s.abandon(demuxIDs[abandoned])
		exited := make(chan struct{})
		go func() {
			s.readLoop()
			close(exited)
		}()
		go func() {
			for _, f := range frames {
				if _, err := server.Write(appendFrame(nil, f.id, f.flags, f.body)); err != nil {
					break
				}
			}
			server.Close()
		}()
		var got demuxOutcome
		consumed := make(chan struct{})
		go func() { // the streaming call's caller, as muxCall consumes it
			defer close(consumed)
			sc := calls[stream]
			for {
				select {
				case c := <-sc.stream:
					got.streamed = append(got.streamed, describe(c))
				case r := <-sc.done:
					for len(sc.stream) > 0 {
						got.streamed = append(got.streamed, describe(<-sc.stream))
					}
					switch {
					case r.err != nil:
						got.stream = "err"
					case r.msg == nil:
						got.stream = "done"
					default:
						got.stream = describe(r.msg)
					}
					return
				}
			}
		}()
		for _, ch := range []chan struct{}{exited, consumed} {
			select {
			case <-ch:
			case <-time.After(10 * time.Second):
				t.Fatal("the reader blocked")
			}
		}
		select {
		case r := <-calls[plain].done:
			if got.plain = "err"; r.err == nil {
				got.plain = describe(r.msg)
			}
		default:
			t.Fatal("the plain call never completed")
		}
		if len(calls[plain].done) > 0 {
			t.Fatal("the plain call completed twice")
		}
		if got.plain != want.plain || got.stream != want.stream || !slices.Equal(got.streamed, want.streamed) {
			t.Fatalf("demux of %d frames:\n got %+v\nwant %+v", len(frames), got, want)
		}
	})
}
