package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"prism/internal/protocol"
)

// blockingHandler parks until its context is cancelled.
type blockingHandler struct{ entered chan struct{} }

func (h blockingHandler) Handle(ctx context.Context, req any) (any, error) {
	select {
	case h.entered <- struct{}{}:
	default:
	}
	<-ctx.Done()
	return nil, ctx.Err()
}

// rawConn is a hand-driven client connection: tests write crafted
// frames with enc or by hand and read the server's reply stream with
// dec.
type rawConn struct {
	net.Conn
	enc streamEncoder
	dec streamDecoder
}

// dialRaw opens a rawConn to addr, closed when the test ends.
func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	return &rawConn{Conn: conn}
}

// send encodes env on the connection's stream and writes its frame.
func (c *rawConn) send(t *testing.T, env *envelope) {
	t.Helper()
	frame, err := c.enc.encode(env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestTCPFrameEdgeCases drives the server's frame reader with raw crafted
// byte streams: a well-formed call, an oversized length announcement,
// truncated frames, garbage, a type defined twice in one stream, and
// bytes left over after an envelope.
func TestTCPFrameEdgeCases(t *testing.T) {
	addr := startTCP(t, echoHandler{})

	// frameOf returns body with a header announcing its length.
	frameOf := func(restart bool, body []byte) []byte {
		hdr := uint32(len(body))
		if restart {
			hdr |= restartBit
		}
		return append(binary.BigEndian.AppendUint32(nil, hdr), body...)
	}

	cases := []struct {
		name  string
		write func(t *testing.T, conn *rawConn)
		// wantReply: a full reply frame must come back. Otherwise the
		// server must drop the connection (EOF / reset), optionally after
		// an error frame naming the cause.
		wantReply   bool
		wantErrFrag string
	}{
		{
			name: "well-formed frame echoes",
			write: func(t *testing.T, conn *rawConn) {
				conn.send(t, &envelope{Payload: protocol.PSIRequest{Table: "ok"}})
			},
			wantReply: true,
		},
		{
			name: "oversized frame announcement is rejected",
			write: func(t *testing.T, conn *rawConn) {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], uint32(MaxFrameBytes+1))
				if _, err := conn.Write(hdr[:]); err != nil {
					t.Fatal(err)
				}
			},
			wantErrFrag: "size limit",
		},
		{
			name: "truncated frame drops the connection",
			write: func(t *testing.T, conn *rawConn) {
				var hdr [4]byte
				binary.BigEndian.PutUint32(hdr[:], 1024) // announce 1 KiB…
				conn.Write(hdr[:])
				conn.Write([]byte{1, 2, 3}) // …deliver 3 bytes
				if tc, ok := conn.Conn.(*net.TCPConn); ok {
					tc.CloseWrite()
				}
			},
		},
		{
			name: "garbage payload of announced size drops the connection",
			write: func(t *testing.T, conn *rawConn) {
				conn.Write(frameOf(true, []byte("this is not gob data")))
			},
		},
		{
			name: "duplicate type definition mid-stream drops the connection",
			write: func(t *testing.T, conn *rawConn) {
				// The first frame defines the envelope and payload types
				// and is answered. Replaying it without the restart bit
				// defines them a second time in the same stream.
				first, err := conn.enc.encode(&envelope{ID: 1, Payload: protocol.PSIRequest{Table: "ok"}})
				if err != nil {
					t.Fatal(err)
				}
				conn.Write(first)
				if env, err := conn.dec.readFrame(conn); err != nil || env.ID != 1 {
					t.Fatalf("first frame not answered: %v %#v", err, env)
				}
				conn.Write(frameOf(false, first[4:]))
			},
		},
		{
			name: "bytes left over after an envelope drop the connection",
			write: func(t *testing.T, conn *rawConn) {
				// Two envelopes of one stream packed into a single frame.
				a, err := conn.enc.encode(&envelope{ID: 1, Payload: protocol.PSIRequest{Table: "a"}})
				if err != nil {
					t.Fatal(err)
				}
				a = slices.Clone(a)
				b, err := conn.enc.encode(&envelope{ID: 2, Payload: protocol.PSIRequest{Table: "b"}})
				if err != nil {
					t.Fatal(err)
				}
				conn.Write(frameOf(true, append(a[4:], b[4:]...)))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialRaw(t, addr)
			tc.write(t, conn)
			env, err := conn.dec.readFrame(conn)
			switch {
			case tc.wantReply:
				if err != nil {
					t.Fatalf("expected echo reply, got %v", err)
				}
				if r, ok := env.Payload.(protocol.PSIRequest); !ok || r.Table != "ok" {
					t.Fatalf("bad echo: %#v", env.Payload)
				}
			case tc.wantErrFrag != "":
				if err != nil {
					t.Fatalf("expected an error frame before close, got %v", err)
				}
				if !strings.Contains(env.Err, tc.wantErrFrag) {
					t.Fatalf("error frame %q does not mention %q", env.Err, tc.wantErrFrag)
				}
				// After the error frame the connection must be closed.
				if _, err := conn.dec.readFrame(conn); err == nil {
					t.Fatal("connection still alive after protocol violation")
				}
			default:
				if err == nil {
					t.Fatalf("expected dropped connection, got frame %#v", env)
				}
			}
		})
	}
}

// TestTCPClientOversizedRequest asserts the client refuses to send a
// frame above the limit locally, without touching the wire.
func TestTCPClientOversizedRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a >256MiB payload")
	}
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	// All-ones elements pack at the full 8-byte width, so one element
	// past MaxFrameBytes/8 pushes the frame over the cap.
	out := make(protocol.U64s, MaxFrameBytes/8+1)
	for i := range out {
		out[i] = ^uint64(0)
	}
	huge := protocol.PSIReply{Out: out}
	_, err := c.Call(context.Background(), "s", huge)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// The connection must still work for sane requests.
	if _, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "ok"}); err != nil {
		t.Fatalf("connection unusable after local reject: %v", err)
	}
}

// TestTCPClientTruncatedReply asserts a server that dies mid-reply
// surfaces a transport error, not a hang or a garbage value.
func TestTCPClientTruncatedReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var dec streamDecoder
		if _, err := dec.readFrame(conn); err != nil {
			return
		}
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], 4096) // promise 4 KiB
		conn.Write(hdr[:])
		conn.Write([]byte{0xde, 0xad}) // deliver 2 bytes, then close
	}()
	c := NewTCPClient(map[string]string{"s": ln.Addr().String()})
	defer c.Close()
	_, err = c.Call(context.Background(), "s", protocol.PSIRequest{Table: "t"})
	if err == nil {
		t.Fatal("truncated reply accepted")
	}
	if !strings.Contains(err.Error(), "truncated") && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want truncation", err)
	}
}

// TestTCPCallCancellationMidCall asserts a Call blocked on a slow server
// returns promptly with the context error when cancelled.
func TestTCPCallCancellationMidCall(t *testing.T) {
	h := blockingHandler{entered: make(chan struct{}, 1)}
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "s", protocol.PSIRequest{Table: "slow"})
		done <- err
	}()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("server never received the call")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call did not return after cancellation")
	}
	// The connection survives a wait-side cancellation; a fresh call
	// reuses it (and times out on the still-blocking handler with its
	// own deadline, not the stale cancellation).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel2()
	if _, err := c.Call(ctx2, "s", protocol.PSIRequest{Table: "again"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded from the fresh call's own deadline", err)
	}
}

// TestTCPCallPreCancelled asserts an already-cancelled context never
// touches the wire.
func TestTCPCallPreCancelled(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, "s", protocol.PSIRequest{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
