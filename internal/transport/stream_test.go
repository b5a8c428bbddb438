package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"prism/internal/protocol"
)

// readRawFrame reads one whole frame, header included, without
// decoding it.
func readRawFrame(r io.Reader) ([]byte, error) {
	frame := make([]byte, 4)
	if _, err := io.ReadFull(r, frame); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(frame) &^ restartBit
	frame = append(frame, make([]byte, n)...)
	_, err := io.ReadFull(r, frame[4:])
	return frame, err
}

// TestStreamCodecRecordedStream decodes a recorded stream with one
// decoder: a restart, frames without descriptors, a failed send and the
// restart after it. Every envelope must come back equal, and a repeated
// type's frame must be strictly smaller than its first.
func TestStreamCodecRecordedStream(t *testing.T) {
	s := wireSamples()
	msgs := []any{s[1], s[1], s[6], nil, s[1], s[6]}
	stream := recordedStream(t, msgs...)
	var dec streamDecoder
	var sizes []int
	r := bytes.NewReader(stream)
	for i, m := range msgs {
		if m == nil {
			continue
		}
		frame, err := readRawFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(frame))
		env, err := dec.decodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.ID != uint64(i+1) || !reflect.DeepEqual(env.Payload, m) {
			t.Fatalf("frame %d decoded to %+v, want %+v", i, env, m)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left after the last frame", r.Len())
	}
	// sizes: PSIReply, PSIReply, StoreDeltaRequest, then after the
	// restart PSIReply and StoreDeltaRequest again.
	if !(sizes[1] < sizes[0]) {
		t.Fatalf("repeat frame %d B not smaller than first %d B", sizes[1], sizes[0])
	}
	if sizes[3] != sizes[0] {
		t.Fatalf("frame after restart %d B, want the first frame's %d B (descriptors resent)", sizes[3], sizes[0])
	}
}

// TestStreamDescriptorsOncePerConnection checks, for each transport,
// that the second frame of a message type on one connection carries no
// type descriptor: it is strictly smaller than the first, and still
// decodes to an equal value.
func TestStreamDescriptorsOncePerConnection(t *testing.T) {
	sample := wireSamples()[5] // StoreRequest: many fields, large descriptor

	t.Run("network", func(t *testing.T) {
		n := NewNetwork()
		n.EncodeWire = true
		n.Register("s", echoHandler{})
		var peaks []int64
		for i := 0; i < 2; i++ {
			n.ResetPeakFrame()
			got, err := n.Call(context.Background(), "s", sample)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sample) {
				t.Fatalf("call %d: round trip changed value: %+v", i, got)
			}
			peaks = append(peaks, n.PeakFrameBytes())
		}
		if !(peaks[1] < peaks[0]) {
			t.Fatalf("second call's frames peak at %d B, first at %d B: descriptors resent", peaks[1], peaks[0])
		}
	})

	t.Run("tcp client", func(t *testing.T) {
		// A recording echo server: the client's request frames are
		// measured raw, then decoded on one stream.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		sizes := make(chan int, 2)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			var enc streamEncoder
			var dec streamDecoder
			for {
				frame, err := readRawFrame(conn)
				if err != nil {
					return
				}
				env, err := dec.decodeFrame(frame)
				if err != nil {
					t.Error(err)
					return
				}
				sizes <- len(frame)
				out, err := enc.encode(env)
				if err != nil {
					t.Error(err)
					return
				}
				conn.Write(out)
			}
		}()
		c := NewTCPClient(map[string]string{"s": ln.Addr().String()})
		defer c.Close()
		for i := 0; i < 2; i++ {
			got, err := c.Call(context.Background(), "s", sample)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, sample) {
				t.Fatalf("call %d: round trip changed value: %+v", i, got)
			}
		}
		if first, second := <-sizes, <-sizes; !(second < first) {
			t.Fatalf("second request frame %d B not smaller than first %d B", second, first)
		}
	})

	t.Run("tcp server", func(t *testing.T) {
		conn := dialRaw(t, startTCP(t, echoHandler{}))
		var sizes []int
		for i := 0; i < 2; i++ {
			conn.send(t, &envelope{ID: uint64(i + 1), Payload: sample})
			frame, err := readRawFrame(conn)
			if err != nil {
				t.Fatal(err)
			}
			env, err := conn.dec.decodeFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			if env.ID != uint64(i+1) || !reflect.DeepEqual(env.Payload, sample) {
				t.Fatalf("reply %d: %+v", i, env)
			}
			sizes = append(sizes, len(frame))
		}
		if !(sizes[1] < sizes[0]) {
			t.Fatalf("second reply frame %d B not smaller than first %d B", sizes[1], sizes[0])
		}
	})
}

// streamCallers builds each transport around a handler: an EncodeWire
// Network and a TCP client on a live server, both reached at "s".
func streamCallers() map[string]func(t *testing.T, h Handler) Caller {
	return map[string]func(t *testing.T, h Handler) Caller{
		"network": func(t *testing.T, h Handler) Caller {
			n := NewNetwork()
			n.EncodeWire = true
			n.Register("s", h)
			return n
		},
		"tcp": func(t *testing.T, h Handler) Caller {
			c := NewTCPClient(map[string]string{"s": startTCP(t, h)})
			t.Cleanup(func() { c.Close() })
			return c
		},
	}
}

// TestStreamSurvivesFailedSend is the desync hazard: an oversized or
// unencodable message may mark types as sent before it fails. The
// stream must restart, so later calls — of the failed message's type
// and of types never sent before — succeed on the same connection, for
// requests (client encoder) and replies (server encoder) alike.
func TestStreamSurvivesFailedSend(t *testing.T) {
	defer SetFrameLimit(4096)()
	big := protocol.PSIReply{Out: make(protocol.U64s, 1024)}
	for i := range big.Out {
		big.Out[i] = 1 << 40 // 8-byte width: 8 KiB, above the 4 KiB cap
	}
	small := wireSamples()[1].(protocol.PSIReply)
	fresh := wireSamples()[3].(protocol.CountReply)
	// The handler echoes, except for two PSIRequest tables whose replies
	// cannot be sent.
	h := HandlerFunc(func(_ context.Context, req any) (any, error) {
		if r, ok := req.(protocol.PSIRequest); ok {
			switch r.Table {
			case "big":
				return big, nil
			case "bad":
				return unencodable{C: make(chan int)}, nil
			}
		}
		return req, nil
	})
	steps := []struct {
		name    string
		req     any
		wantErr string // "" for success, echoing req
	}{
		{"unencodable request first on the connection", unencodable{C: make(chan int)}, "not registered"},
		{"request after it", protocol.PSIRequest{Table: "t"}, ""},
		{"oversized request", big, "size limit"},
		{"request of the oversized type", small, ""},
		{"request of a type never sent", fresh, ""},
		{"oversized reply", protocol.PSIRequest{Table: "big"}, "size limit"},
		{"reply of the oversized type", small, ""},
		{"unencodable reply", protocol.PSIRequest{Table: "bad"}, "not registered"},
		{"reply after it", wireSamples()[2], ""},
	}
	for name, mk := range streamCallers() {
		t.Run(name, func(t *testing.T) {
			c := mk(t, h)
			for _, st := range steps {
				got, err := c.Call(context.Background(), "s", st.req)
				if st.wantErr != "" {
					if err == nil || !strings.Contains(err.Error(), st.wantErr) {
						t.Fatalf("%s: err = %v, want %q", st.name, err, st.wantErr)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", st.name, err)
				}
				if !reflect.DeepEqual(got, st.req) {
					t.Fatalf("%s: got %+v, want %+v", st.name, got, st.req)
				}
			}
		})
	}
}

// TestStreamConcurrentFirstTypes sends every sample type for the first
// time from many goroutines at once on one connection, so descriptor
// sends race on both the client's and the server's encoder. Run it
// under -race.
func TestStreamConcurrentFirstTypes(t *testing.T) {
	samples := wireSamples()
	for name, mk := range streamCallers() {
		t.Run(name, func(t *testing.T) {
			c := mk(t, echoHandler{})
			var wg sync.WaitGroup
			for round := 0; round < 4; round++ {
				for _, m := range samples {
					wg.Add(1)
					go func(m any) {
						defer wg.Done()
						got, err := c.Call(context.Background(), "s", m)
						if err != nil {
							t.Errorf("%T: %v", m, err)
							return
						}
						if !reflect.DeepEqual(got, m) {
							t.Errorf("%T: round trip changed value: %+v", m, got)
						}
					}(m)
				}
			}
			wg.Wait()
		})
	}
}

// TestStreamLargeFrameRestarts checks the keep bound: a frame above
// streamKeepBytes ends the stream on both sides, and the next frame
// restarts it.
func TestStreamLargeFrameRestarts(t *testing.T) {
	large := protocol.PSIReply{Out: make(protocol.U64s, streamKeepBytes/8+1)}
	for i := range large.Out {
		large.Out[i] = ^uint64(0)
	}
	msgs := []any{large, wireSamples()[0], wireSamples()[0]}
	var enc streamEncoder
	var dec streamDecoder
	for i, m := range msgs {
		frame, err := enc.encode(&envelope{Payload: m})
		if err != nil {
			t.Fatal(err)
		}
		restart := binary.BigEndian.Uint32(frame)&restartBit != 0
		if want := i != 2; restart != want {
			t.Fatalf("frame %d: restart = %v, want %v", i, restart, want)
		}
		env, err := dec.decodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(env.Payload, m) {
			t.Fatalf("frame %d changed value", i)
		}
	}
	// A receiver that was sent a large frame expects a restart next.
	frame, err := enc.encode(&envelope{Payload: large})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.decodeFrame(frame); err != nil {
		t.Fatal(err)
	}
	var plain streamEncoder
	next, err := plain.encode(&envelope{Payload: wireSamples()[0]})
	if err != nil {
		t.Fatal(err)
	}
	next[0] &^= restartBit >> 24
	if _, err := dec.decodeFrame(next); !errors.Is(err, errNoStream) {
		t.Fatalf("non-restart frame after a large one: err = %v, want errNoStream", err)
	}
}

// TestReadFrameAllocationBounded sends lengths that promise far more
// than arrives: the reader must fail after allocating about what
// arrived, not what was announced. One case announces a FrameLimit-sized
// frame and ends the stream; the other sends a whole 5-byte frame whose
// gob message count announces 9 MiB, which gob would allocate before
// reading.
func TestReadFrameAllocationBounded(t *testing.T) {
	for _, tc := range []struct {
		name, wantErr string
		stream        []byte
	}{
		{"frame length", "truncated",
			append(binary.BigEndian.AppendUint32(nil, uint32(FrameLimit())|restartBit), make([]byte, 1000)...)},
		{"gob message count", "overruns",
			append(binary.BigEndian.AppendUint32(nil, 5|restartBit), 0xfc, 0x00, 0x90, 0x00, 0x00)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var dec streamDecoder
			_, err := dec.readFrame(bytes.NewReader(tc.stream))
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("allocated %d B reading %d B", got, len(tc.stream))
			}
		})
	}
}

// TestWholeMessagesRejectsOverrun checks that a gob message count
// reaching past the frame is refused before gob sizes a buffer by it.
func TestWholeMessagesRejectsOverrun(t *testing.T) {
	for _, tc := range []struct {
		body []byte
		ok   bool
	}{
		{[]byte{}, true},
		{[]byte{2, 9, 9}, true},
		{[]byte{2, 9, 9, 0}, true}, // a second, empty message
		{[]byte{3, 9, 9}, false},
		{[]byte{0xfc, 0x7f, 0xff, 0xff, 0xff}, false}, // 2 GiB count
		{[]byte{0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9}, false},
		{[]byte{0x80}, false},
		{[]byte{0xfe, 1}, false},
	} {
		if err := wholeMessages(tc.body); (err == nil) != tc.ok {
			t.Errorf("wholeMessages(% x) = %v, want ok=%v", tc.body, err, tc.ok)
		}
	}
}
