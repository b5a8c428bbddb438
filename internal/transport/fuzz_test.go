package transport

import (
	"bytes"
	"testing"

	"prism/internal/protocol"
)

// FuzzTransportFrame hardens the TCP frame reader, which parses every
// byte a peer sends: the length prefix, the gob envelope and the packed
// vectors inside it. Whatever the bytes, readFrame must return a
// decoded envelope or an error — never panic. The frame cap is shrunk so
// a hostile length prefix cannot make the fuzzer allocate 256 MiB.
func FuzzTransportFrame(f *testing.F) {
	seeds := append(wireSamples(), protocol.Messages()...)
	for i, m := range seeds {
		frame, err := encodeFrame(&envelope{ID: uint64(i + 1), Payload: m})
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
			if _, err := readFrame(r); err != nil {
				return
			}
		}
	})
}
