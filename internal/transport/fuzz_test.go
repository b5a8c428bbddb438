package transport

import (
	"bytes"
	"testing"

	"prism/internal/protocol"
)

// FuzzTransportFrame hardens the TCP frame reader on stand-alone frames,
// each read as the first frame of a fresh connection: the length prefix,
// the gob envelope with its type descriptors and the packed vectors
// inside it. Whatever the bytes, readFrame must return a decoded
// envelope or an error — never panic. The frame cap is shrunk so a
// hostile length prefix cannot make the fuzzer allocate 256 MiB.
func FuzzTransportFrame(f *testing.F) {
	seeds := append(wireSamples(), protocol.Messages()...)
	for i, m := range seeds {
		var enc streamEncoder
		frame, err := enc.encode(&envelope{ID: uint64(i + 1), Payload: m})
		if err != nil {
			f.Fatalf("%T: %v", m, err)
		}
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})

	defer SetFrameLimit(1 << 20)()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			var dec streamDecoder
			if _, err := dec.readFrame(r); err != nil {
				return
			}
		}
	})
}

// recordedStream returns the frames one connection sends for msgs, as a
// single byte stream. A nil entry stands for a failed send: an
// unencodable message that never reaches the wire and restarts the
// stream on the next frame.
func recordedStream(t testing.TB, msgs ...any) []byte {
	var enc streamEncoder
	var out []byte
	for i, m := range msgs {
		env := &envelope{ID: uint64(i + 1), Payload: m}
		if m == nil {
			env.Payload = unencodable{C: make(chan int)}
		}
		frame, err := enc.encode(env)
		if (err != nil) != (m == nil) {
			t.Fatalf("frame %d (%T): err = %v", i, m, err)
		}
		out = append(out, frame...)
	}
	return out
}

// FuzzTransportStream hardens the per-connection stream: arbitrary bytes
// read as a sequence of frames into one connection's decoder, so type
// definitions, restarts and envelopes interact across frames. Every
// input must end in a clean error, never a panic.
func FuzzTransportStream(f *testing.F) {
	s := wireSamples()
	// A restart frame with descriptors, frames without them, a new type
	// mid-stream, then a failed send forcing a mid-stream restart.
	f.Add(recordedStream(f, s[0], s[0], s[1], s[0], nil, s[1], s[2], s[1]))
	f.Add(recordedStream(f, s...))
	f.Add(recordedStream(f, append(s, s...)...))

	defer SetFrameLimit(1 << 20)()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var dec streamDecoder
		for {
			if _, err := dec.readFrame(r); err != nil {
				return
			}
		}
	})
}
