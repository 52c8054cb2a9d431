package netserve

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"
	"time"
)

// FuzzRequestFrame feeds arbitrary bytes to one connection's reader and
// writer, the way a hostile or broken client would send them, and checks
// the server against the documented frame format: it never panics, never
// sizes a request buffer past the largest legal frame body, answers every
// complete well-formed frame in order, answers the first malformed frame
// BAD_REQUEST and then stops, and hands the engine only in-range requests.
func FuzzRequestFrame(f *testing.F) {
	hello := fuzzFrame(ReqHeader{ID: 1, Op: OpHello, Off: ProtoMagic, Size: ProtoVersion}, "t", nil)
	write := fuzzFrame(ReqHeader{ID: 2, Op: OpWrite, Off: 4096, Size: 16}, "f", nil)
	payloadWrite := fuzzFrame(ReqHeader{ID: 3, Op: OpWrite, Flags: FlagPayload, Off: 0, Size: 4}, "f", []byte("data"))
	read := fuzzFrame(ReqHeader{ID: 4, Op: OpRead, Off: 0, Size: 32}, "f", nil)
	join := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }

	f.Add([]byte{}, false)
	f.Add(hello, false)
	f.Add(join(hello, write, read), false)
	f.Add(join(hello, payloadWrite, read), true)
	f.Add(join(hello, write[:ReqHdrLen+1]), false)                                                    // torn name
	f.Add(join(write, read), false)                                                                   // request before hello
	f.Add(join(hello, hello), false)                                                                  // second hello
	f.Add(join(hello, fuzzFrame(ReqHeader{ID: 5, Op: 9, Size: 1}, "f", nil)), false)                  // unknown op
	f.Add(join(hello, fuzzFrame(ReqHeader{ID: 6, Op: OpRead, Size: MaxPayload + 1}, "f", nil)), true) // oversized
	// Offset whose end overflows int64: the engine's extent arithmetic
	// would wrap negative.
	f.Add(join(hello, fuzzFrame(ReqHeader{ID: 7, Op: OpWrite, Off: math.MaxInt64, Size: 1}, "f", nil)), false)
	f.Fuzz(func(t *testing.T, data []byte, payload bool) {
		want, wantBad := specResponses(data)

		s := &Server{cfg: Config{Engine: fuzzEngine{t}, Window: 32, Payload: payload}, conns: make(map[int]*sconn)}
		nc := &fuzzConn{in: bytes.NewReader(data)}
		c := newSConn(s, 0, nc)
		s.wg.Add(2)
		go c.writeLoop()
		c.readLoop()
		s.wg.Wait()

		out := nc.out.Bytes()
		for i, w := range want {
			if len(out) < RespHdrLen {
				t.Fatalf("%d responses, want %d (malformed tail: %v)", i, len(want), wantBad)
			}
			h := ParseRespHeader(out)
			out = out[RespHdrLen:]
			if h.ID != w.id {
				t.Fatalf("response %d: id %d, want %d", i, h.ID, w.id)
			}
			bad := wantBad && i == len(want)-1
			switch {
			case bad && h.Status != StatusBadRequest:
				t.Fatalf("malformed frame id %d answered %s, want BAD_REQUEST", w.id, StatusString(h.Status))
			case !bad && h.Status != StatusOK && (h.Status != StatusBusy || w.op == OpHello):
				t.Fatalf("well-formed frame id %d answered %s", w.id, StatusString(h.Status))
			}
			wantLen := uint32(0)
			if payload && w.op == OpRead && h.Status == StatusOK {
				wantLen = uint32(w.size)
			}
			if h.PayloadLen != wantLen || uint32(len(out)) < h.PayloadLen {
				t.Fatalf("response %d: payload %d bytes (%d left), want %d", i, h.PayloadLen, len(out), wantLen)
			}
			out = out[h.PayloadLen:]
		}
		if len(out) != 0 {
			t.Fatalf("%d stray response bytes after %d responses", len(out), len(want))
		}
		if got := s.protocolAborts.Load(); (got != 0) != wantBad {
			t.Fatalf("protocol aborts %d, malformed frame present: %v", got, wantBad)
		}
		for len(c.free) > 0 {
			if r := <-c.free; cap(r.buf) > MaxNameLen+MaxPayload {
				t.Fatalf("request buffer grew to %d bytes, past the largest legal frame body", cap(r.buf))
			}
		}
	})
}

// fuzzFrame encodes one request frame; h.NameLen is set from name.
func fuzzFrame(h ReqHeader, name string, payload []byte) []byte {
	h.NameLen = uint16(len(name))
	b := make([]byte, ReqHdrLen, ReqHdrLen+len(name)+len(payload))
	PutReqHeader(b, h)
	return append(append(b, name...), payload...)
}

// specResponse is one response the frame format obliges the server to send.
type specResponse struct {
	id   uint64
	op   uint8
	size int64
}

// specResponses walks data by the frame format in proto.go, independently
// of the server's decoder. It returns the responses owed, in order, and
// whether the last of them answers a malformed frame. Header limits are
// judged on the header alone; everything else once the frame's name and
// payload have arrived. A frame cut short owes nothing.
func specResponses(data []byte) (out []specResponse, malformed bool) {
	helloDone := false
	for len(data) >= ReqHdrLen {
		h := ParseReqHeader(data)
		resp := specResponse{id: h.ID, op: h.Op, size: h.Size}
		if h.NameLen == 0 || h.NameLen > MaxNameLen || h.Size < 0 || h.Size > MaxPayload ||
			h.Op != OpHello && (h.Off < 0 || h.Off > math.MaxInt64-h.Size) {
			return append(out, resp), true
		}
		body := int64(h.NameLen)
		if h.Flags&FlagPayload != 0 {
			body += h.Size
		}
		if int64(len(data)-ReqHdrLen) < body {
			return out, false
		}
		data = data[ReqHdrLen+body:]
		switch h.Op {
		case OpHello:
			if helloDone || h.Off != ProtoMagic || h.Size != ProtoVersion {
				return append(out, resp), true
			}
			helloDone = true
		case OpWrite, OpRead:
			if !helloDone || h.Size == 0 || h.Op == OpRead && h.Flags&FlagPayload != 0 {
				return append(out, resp), true
			}
		default:
			return append(out, resp), true
		}
		out = append(out, resp)
	}
	return out, false
}

// fuzzEngine completes every request synchronously and fails the test on
// any request the decoder should have refused.
type fuzzEngine struct{ t *testing.T }

func (e fuzzEngine) check(file string, off, size int64, b []byte) {
	if !strings.Contains(file, "|") {
		e.t.Fatalf("engine saw un-namespaced file %q", file)
	}
	if off < 0 || size <= 0 || size > MaxPayload || off > math.MaxInt64-size {
		e.t.Fatalf("engine saw out-of-range request off=%d size=%d", off, size)
	}
	if b != nil && int64(len(b)) != size {
		e.t.Fatalf("engine saw a %d-byte buffer for a %d-byte request", len(b), size)
	}
}

func (e fuzzEngine) Write(rank int, file string, off, size int64, data []byte, done func(error)) error {
	e.check(file, off, size, data)
	done(nil)
	return nil
}

func (e fuzzEngine) Read(rank int, file string, off, size int64, buf []byte, done func(error)) error {
	e.check(file, off, size, buf)
	done(nil)
	return nil
}

// fuzzConn is an in-memory connection: reads drain the fuzz input, writes
// collect the server's responses.
type fuzzConn struct {
	in  *bytes.Reader
	out bytes.Buffer
}

func (c *fuzzConn) Read(b []byte) (int, error)       { return c.in.Read(b) }
func (c *fuzzConn) Write(b []byte) (int, error)      { return c.out.Write(b) }
func (c *fuzzConn) Close() error                     { return nil }
func (c *fuzzConn) LocalAddr() net.Addr              { return nil }
func (c *fuzzConn) RemoteAddr() net.Addr             { return nil }
func (c *fuzzConn) SetDeadline(time.Time) error      { return nil }
func (c *fuzzConn) SetReadDeadline(time.Time) error  { return nil }
func (c *fuzzConn) SetWriteDeadline(time.Time) error { return nil }
