// Package transport moves protocol messages between the data source and
// providers. There is one client, the multiplexed Conn, and one provider
// side, Server. DialWith connects the Conn to a Server over TCP (cmd/dasd);
// NewLocal connects it to a Server over in-memory pipes, so in-process
// clusters, unit tests and experiments run the deployed protocol step for
// step and count exactly the bytes a network deployment would move.
//
// There is one wire protocol (protoVersion). A connection opens with a
// hello/ack handshake naming the version and the session's tenant; a peer
// that opens with anything else, or acks any other version, is answered
// with an error and disconnected. After the handshake every frame is
// [len u32][crc u32][id u64][flags u8][body]: any number of requests share
// one connection, the server dispatches them through its admission
// scheduler and replies out of order, large row responses stream back as a
// chunked sequence of frames with bounded buffering on both ends, and a
// client that stops waiting for a call (it has what it needs, or its
// deadline passed) cancels it by id.
//
// The package also provides fault injection (crash, delay, response
// corruption) used by the fault-tolerance and malicious-provider
// experiments (E10, E14).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"sssdb/internal/proto"
)

// maxFrameSize bounds one frame; matches the proto list limits.
const maxFrameSize = 256 << 20

// protoVersion is the one protocol version spoken; the handshake names it
// so a peer from a different generation fails loudly instead of misparsing
// frames. Version 4 frames carry rows as share-row blocks (proto/rowblock.go)
// whose order-preserving cells are as wide as the table spec declares, and
// number their message kinds from proto's kindBase; version 5 answers every
// aggregate with one message of buckets (proto.GroupResult); version 6 puts
// the Merkle root inside a verified scan's proof and has no digest request;
// version 7 drops the scan's clock deadline, since the cancel frame now
// stops every abandoned call; version 8 streams a join's pairs as row chunks
// and has no join result message.
const protoVersion = 8

// Frame flags.
const (
	// flagFinal marks the last frame of a response (or a whole request).
	flagFinal = 0x01
	// flagChunk marks a frame carrying part of a streamed row response.
	flagChunk = 0x02
	// flagCancel, on a client→server frame, asks the server to stop
	// producing the response for this request id (LIMIT reached, deadline
	// hit): a queued request never runs and a stream stops at its next
	// batch. The body is empty. Cancellation is advisory and asymmetric:
	// the client has already abandoned the id, so any frames that race the
	// cancel are dropped on arrival.
	flagCancel = 0x04
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("transport: connection closed")

// ErrFrameCorrupt reports a frame failing its checksum.
var ErrFrameCorrupt = errors.New("transport: corrupt frame")

// ErrStreamCanceled is returned by a StreamHandler's emit callback once the
// client has canceled the request; the handler should stop producing and
// return it (or any error wrapping it).
var ErrStreamCanceled = errors.New("transport: stream canceled by client")

// Stats counts traffic through a Conn. Byte counts include framing
// overhead, the negotiation handshake and cancel frames, mirroring what a
// network capture would show. Calls counts logical request/response
// exchanges, not frames: a response streamed as several chunk frames is
// still one call.
type Stats struct {
	BytesSent     uint64
	BytesReceived uint64
	Calls         uint64
}

// Conn is a request/response channel to one provider. Implementations are
// safe for concurrent use; the multiplexed Conn runs concurrent calls truly
// in parallel on one connection.
type Conn interface {
	// Call sends a request and waits for the provider's response.
	Call(req proto.Message) (proto.Message, error)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
	// Close releases the connection.
	Close() error
}

// StreamCaller is optionally implemented by Conns that can deliver a large
// row response incrementally instead of buffering it whole.
type StreamCaller interface {
	// CallStream sends a scan-shaped request and invokes yield once per
	// arriving row chunk, in order. The request's deadline (if any) covers
	// the whole stream. A non-nil error from yield abandons the call.
	CallStream(req proto.Message, yield func(*proto.RowsResponse) error) error
}

// DeadlineCaller is optionally implemented by Conns that can bound one
// call by an absolute wall-clock deadline, tighter than (and composing
// with) any connection-level timeout. A call that cannot complete by the
// deadline fails with an error matching os.ErrDeadlineExceeded.
type DeadlineCaller interface {
	CallDeadline(req proto.Message, deadline time.Time) (proto.Message, error)
}

// StreamDeadlineCaller is the streaming form of DeadlineCaller: the
// deadline covers the entire chunk stream.
type StreamDeadlineCaller interface {
	CallStreamDeadline(req proto.Message, deadline time.Time, yield func(*proto.RowsResponse) error) error
}

// CallWithDeadline invokes req on c under an absolute deadline. A zero
// deadline means none. Every Conn this package builds implements
// DeadlineCaller and abandons the call when the deadline passes, however
// long the handler runs; a wrapper that does not gets a best-effort bound:
// the call fails fast if the deadline has already passed, and otherwise
// runs unbounded.
func CallWithDeadline(c Conn, req proto.Message, deadline time.Time) (proto.Message, error) {
	if deadline.IsZero() {
		return c.Call(req)
	}
	if dc, ok := c.(DeadlineCaller); ok {
		return dc.CallDeadline(req, deadline)
	}
	if time.Until(deadline) <= 0 {
		return nil, os.ErrDeadlineExceeded
	}
	return c.Call(req)
}

// CallStreamWithDeadline is CallStream under an absolute deadline covering
// the whole chunk stream; zero means none.
func CallStreamWithDeadline(c Conn, req proto.Message, deadline time.Time, yield func(*proto.RowsResponse) error) error {
	if deadline.IsZero() {
		return CallStream(c, req, yield)
	}
	if sc, ok := c.(StreamDeadlineCaller); ok {
		return sc.CallStreamDeadline(req, deadline, yield)
	}
	if time.Until(deadline) <= 0 {
		return os.ErrDeadlineExceeded
	}
	return CallStream(c, req, yield)
}

// CallStream invokes req on c, delivering row chunks to yield as they
// arrive when c supports streaming, and falling back to one buffered Call
// (yielding the whole response once) when it does not. Provider-side
// errors are surfaced as *proto.RemoteError.
func CallStream(c Conn, req proto.Message, yield func(*proto.RowsResponse) error) error {
	if sc, ok := c.(StreamCaller); ok {
		return sc.CallStream(req, yield)
	}
	resp, err := c.Call(req)
	if err != nil {
		return err
	}
	return yieldWhole(resp, yield)
}

// yieldWhole delivers a response that arrived in one piece to a stream
// consumer: rows as a single chunk, a provider-side error as
// *proto.RemoteError.
func yieldWhole(resp proto.Message, yield func(*proto.RowsResponse) error) error {
	switch m := resp.(type) {
	case *proto.RowsResponse:
		return yield(m)
	case *proto.ErrorResponse:
		return m.Err()
	default:
		return fmt.Errorf("transport: unexpected %T in row stream", resp)
	}
}

// Handler is the provider side of a transport: it consumes one request and
// produces one response, sent as one frame. The multiplexed server invokes
// Handle from concurrent worker goroutines, so implementations must be safe
// for concurrent use.
type Handler interface {
	Handle(req proto.Message) proto.Message
}

// StreamHandler is optionally implemented by Handlers that produce a row
// response batch by batch: the only source of chunk frames. HandleStream
// reports handled=false (without having called emit) when the request has
// no streaming form — the transport then falls back to Handle. When
// handled, emit is called once per batch in order, a proof riding the last;
// emit returns ErrStreamCanceled once the client cancels, or the write error
// once the connection is dead, and the handler must then stop and propagate
// the error. A handled stream with a nil error
// must emit at least one batch (an empty RowsResponse carrying Columns for
// empty results) so the receiver learns the result shape.
type StreamHandler interface {
	HandleStream(req proto.Message, emit func(*proto.RowsResponse) error) (handled bool, err error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(proto.Message) proto.Message

// Handle calls f.
func (f HandlerFunc) Handle(req proto.Message) proto.Message { return f(req) }

// counters is an embedded atomic stats block.
type counters struct {
	sent  atomic.Uint64
	recv  atomic.Uint64
	calls atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		BytesSent:     c.sent.Load(),
		BytesReceived: c.recv.Load(),
		Calls:         c.calls.Load(),
	}
}

// --- Handshake framing ---
//
// The hello and its ack are the only frames without a request id: they
// travel as [len u32][crc u32][body].

// handshakeLen returns the on-wire size of a handshake frame: 8-byte header
// (length + crc) plus the payload.
func handshakeLen(body []byte) uint64 { return uint64(len(body)) + 8 }

// writeHandshake writes one length+crc framed handshake body in one write.
func writeHandshake(w io.Writer, body []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(body, crcTable))
	_, err := w.Write(append(hdr[:], body...))
	return err
}

// readHandshake reads one handshake frame body.
func readHandshake(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	return readBody(r, hdr[:])
}

// bodyPrealloc is the largest body readBody allocates before its bytes
// arrive. Every chunk frame is smaller (proto.BatchBytes is 256 KiB); a
// larger body grows as it is read, so a header alone — from any peer,
// before or after the hello — cannot make the reader allocate maxFrameSize.
const bodyPrealloc = 1 << 20

// readBody reads and checks the body a frame header announces; every frame
// header starts with [len u32][crc u32].
func readBody(r io.Reader, hdr []byte) ([]byte, error) {
	length := binary.BigEndian.Uint32(hdr[0:4])
	want := binary.BigEndian.Uint32(hdr[4:8])
	if length > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", length)
	}
	var body []byte
	var err error
	if length <= bodyPrealloc {
		body = make([]byte, length)
		_, err = io.ReadFull(r, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(r, int64(length)))
		if err == nil && len(body) < int(length) {
			err = io.ErrUnexpectedEOF
		}
	}
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(body, crcTable) != want {
		return nil, ErrFrameCorrupt
	}
	return body, nil
}

// --- Request/response framing ---

// frameHeaderLen is the frame header: length, crc, request id, flags.
const frameHeaderLen = 4 + 4 + 8 + 1

// frameLen returns the on-wire size of a frame for body.
func frameLen(body []byte) uint64 { return uint64(len(body)) + frameHeaderLen }

// frameHeader builds the header of one frame.
func frameHeader(id uint64, flags uint8, body []byte) (hdr [frameHeaderLen]byte) {
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(body, crcTable))
	binary.BigEndian.PutUint64(hdr[8:16], id)
	hdr[16] = flags
	return hdr
}

// appendFrame appends one frame to dst.
func appendFrame(dst []byte, id uint64, flags uint8, body []byte) []byte {
	hdr := frameHeader(id, flags, body)
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// writeStall bounds each socket write at either end of a connection. A peer
// that stops reading for this long is treated as dead, so neither a shared
// handler worker on the provider nor a caller on the client can be wedged
// behind it indefinitely.
const writeStall = 30 * time.Second

// frameWriter puts the frames of any number of goroutines onto one
// connection; both ends write every frame through one. A writer appends its
// frame to a pending buffer, and the first writer of a burst becomes the
// flusher: it writes the buffer out until it is empty, so frames written
// concurrently share one syscall. A writer waits only while connBufSize
// bytes are already pending, until the flusher takes them, which bounds what
// a connection holds for a peer that reads slowly; a frame larger than that
// still goes out whole. Each socket write is bounded by writeStall. A failed
// write closes the connection and fails that write, every write waiting on
// the bound, and every later one.
type frameWriter struct {
	nc       net.Conn
	mu       sync.Mutex
	taken    sync.Cond // broadcast when the flusher takes the buffer or the writer fails
	buf      []byte    // frames not yet handed to the socket
	spare    []byte    // the buffer last written, reused for the next burst
	flushing bool
	err      error
}

func newFrameWriter(nc net.Conn) *frameWriter {
	w := &frameWriter{nc: nc}
	w.taken.L = &w.mu
	return w
}

// write sends one frame. It returns once the frame is on the socket or in
// the hands of another writer's flush; that flush failing fails this
// writer's next write.
func (w *frameWriter) write(id uint64, flags uint8, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.err == nil && len(w.buf) >= connBufSize {
		w.taken.Wait()
	}
	if w.err != nil {
		return w.err
	}
	w.buf = appendFrame(w.buf, id, flags, body)
	if w.flushing {
		return nil
	}
	w.flushing = true
	for w.err == nil && len(w.buf) > 0 {
		buf := w.buf
		w.buf = w.spare[:0]
		w.taken.Broadcast()
		w.mu.Unlock()
		err := w.nc.SetWriteDeadline(time.Now().Add(writeStall))
		if err == nil {
			_, err = w.nc.Write(buf)
		}
		if err != nil {
			w.fail(err)
		}
		w.mu.Lock()
		w.spare = buf[:0]
	}
	w.flushing = false
	return w.err
}

// fail closes the connection and fails every waiting and later write with
// err; a writer that has already failed keeps its first error.
func (w *frameWriter) fail(err error) {
	w.mu.Lock()
	first := w.err == nil
	if first {
		w.err = err
		w.buf = nil
		w.taken.Broadcast()
	}
	w.mu.Unlock()
	if first {
		w.nc.Close()
	}
}

// readFrame reads one frame.
func readFrame(r io.Reader) (id uint64, flags uint8, body []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	body, err = readBody(r, hdr[:])
	return binary.BigEndian.Uint64(hdr[8:16]), hdr[16], body, err
}

// --- Version negotiation ---
//
// Hello and ack bodies start with the reserved kind byte 0 — no protocol
// message begins with it, so a hello can never be mistaken for a request.

var (
	helloPrefix = []byte{0, 'S', 'S', 'X', 'P'}
	ackPrefix   = []byte{0, 'S', 'S', 'X', 'A'}
)

// helloBody builds the client hello advertising its maximum version,
// followed by the session's tenant id (arbitrary trailing bytes, possibly
// empty).
func helloBody(maxVersion uint8, tenant string) []byte {
	b := append(append([]byte(nil), helloPrefix...), maxVersion)
	return append(b, tenant...)
}

// ackBody builds the server ack selecting the version to speak.
func ackBody(version uint8) []byte {
	return append(append([]byte(nil), ackPrefix...), version)
}

// parseNegotiation matches body against the given prefix and returns the
// version byte plus any trailing payload (the tenant id on hellos; empty
// on acks).
func parseNegotiation(body, prefix []byte) (version uint8, rest []byte, ok bool) {
	if len(body) < len(prefix)+1 {
		return 0, nil, false
	}
	for i, b := range prefix {
		if body[i] != b {
			return 0, nil, false
		}
	}
	return body[len(prefix)], body[len(prefix)+1:], true
}
