package transport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"sssdb/internal/proto"
)

// A header that declares a maxFrameSize body and then ends must not make the
// reader allocate that body: a server reads such a header from any peer
// before it has seen a valid hello.
func TestHeaderOnlyFrameAllocatesLittle(t *testing.T) {
	var hs [8]byte
	binary.BigEndian.PutUint32(hs[0:4], maxFrameSize)
	frame := frameHeader(1, flagFinal, nil)
	binary.BigEndian.PutUint32(frame[0:4], maxFrameSize)
	for name, read := range map[string]func() error{
		"handshake": func() error { _, err := readHandshake(bytes.NewReader(hs[:])); return err },
		"frame":     func() error { _, _, _, err := readFrame(bytes.NewReader(frame[:])); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a header with no body was accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
			t.Errorf("%s: reading a bare header allocated %d bytes", name, grew)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame and handshake readers and
// the hello/ack parser, which see whatever a peer sends. None may panic, and
// whatever they accept must re-encode to exactly the bytes they consumed.
// The seeds are the frames one streamed scan puts on the wire: the hello, the
// ack, the request, a chunk and a cancel.
func FuzzReadFrame(f *testing.F) {
	var hello, ack bytes.Buffer
	writeHandshake(&hello, helloBody(protoVersion, "tenant-a"))
	writeHandshake(&ack, ackBody(protoVersion))
	chunk := &proto.RowsResponse{Columns: []string{"a#f"}, Rows: []proto.Row{{ID: 1, Cells: [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}}}}}
	for _, seed := range [][]byte{
		hello.Bytes(),
		ack.Bytes(),
		appendFrame(nil, 1, flagFinal, proto.Encode(&proto.ScanRequest{Table: "t"})),
		appendFrame(nil, 1, flagChunk, proto.Encode(chunk)),
		appendFrame(nil, 1, flagCancel, nil),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		if id, flags, body, err := readFrame(r); err == nil {
			if read := data[:len(data)-r.Len()]; !bytes.Equal(appendFrame(nil, id, flags, body), read) {
				t.Fatalf("frame %x re-encodes differently", read)
			}
		}
		r = bytes.NewReader(data)
		body, err := readHandshake(r)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		writeHandshake(&enc, body)
		if read := data[:len(data)-r.Len()]; !bytes.Equal(enc.Bytes(), read) {
			t.Fatalf("handshake %x re-encodes differently", read)
		}
		if v, tenant, ok := parseNegotiation(body, helloPrefix); ok && !bytes.Equal(helloBody(v, string(tenant)), body) {
			t.Fatalf("hello %x re-encodes differently", body)
		}
		if v, rest, ok := parseNegotiation(body, ackPrefix); ok && len(rest) == 0 && !bytes.Equal(ackBody(v), body) {
			t.Fatalf("ack %x re-encodes differently", body)
		}
	})
}
