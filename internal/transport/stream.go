package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// Wire framing. A frame is a 4-byte big-endian header followed by a
// body of gob messages. The low 31 bits of the header give the body
// length; the top bit marks a restart, whose body begins a fresh gob
// stream. Between restarts the frames of one connection form a single
// gob stream, so each type descriptor crosses the wire once and the
// receiver compiles its decoder once. A body holds exactly one
// envelope, preceded by the descriptors of any types it is the first
// to use.
const (
	restartBit = 1 << 31
	maxBodyLen = restartBit - 1
)

// streamKeepBytes bounds the buffers a connection keeps between frames.
// A frame whose body is larger ends its stream: the sender drops its
// encoder (whose internal buffer grew to the frame's size) and the next
// frame restarts, and the receiver drops its decoder. So an idle
// connection never pins a frame-sized allocation, and the restart after
// a large frame costs little next to the frame itself.
const streamKeepBytes = 1 << 20

// readChunk is the first step of a frame body's read buffer, which then
// doubles as bytes arrive; the length prefix alone never sizes it.
const readChunk = 64 << 10

// errNoStream rejects a frame that continues a stream the receiver has
// not started (no restart yet, or the previous stream ended).
var errNoStream = errors.New("transport: frame continues no stream (restart expected)")

// streamEncoder is the send half of one connection's gob stream. It is
// not safe for concurrent use: the owner serialises encode and the
// write of its frame under the connection's write lock, because frames
// must reach the wire in the order they were encoded.
type streamEncoder struct {
	buf bytes.Buffer
	enc *gob.Encoder // nil: the next frame restarts the stream
}

// encode gob-encodes env into one length-prefixed frame and returns it.
// The frame aliases the encoder's buffer and is valid until the next
// encode. A frame above FrameLimit is refused before any byte reaches
// the wire. Any failure may already have marked types as sent, so it
// ends the stream and the next frame restarts.
func (s *streamEncoder) encode(env *envelope) ([]byte, error) {
	start := time.Now()
	restart := s.enc == nil
	if restart {
		s.enc = gob.NewEncoder(&s.buf)
	}
	s.buf.Reset()
	s.buf.Write([]byte{0, 0, 0, 0}) // header placeholder
	if err := s.enc.Encode(env); err != nil {
		s.restart()
		return nil, err
	}
	b := s.buf.Bytes()
	n := int64(len(b) - 4)
	if n > FrameLimit() || n > maxBodyLen {
		s.restart()
		return nil, fmt.Errorf("%w (%d bytes)", ErrFrameTooLarge, n)
	}
	hdr := uint32(n)
	if restart {
		hdr |= restartBit
	}
	binary.BigEndian.PutUint32(b, hdr)
	if n > streamKeepBytes {
		// The returned frame keeps the old buffer alive until written.
		s.restart()
		s.buf = bytes.Buffer{}
	}
	observeFrame(env.Payload, n, time.Since(start))
	return b, nil
}

// restart ends the stream: the next frame carries a restart marker and
// every descriptor it needs. Called when an encoded frame will not reach
// the wire.
func (s *streamEncoder) restart() { s.enc = nil }

// streamDecoder is the receive half of one connection's gob stream, fed
// by the connection's single read loop.
type streamDecoder struct {
	body bytes.Reader // current frame body; gob reads it byte-wise, never ahead
	dec  *gob.Decoder // nil until a restart frame
	buf  []byte       // read buffer, reused while at most streamKeepBytes
}

// readFrame reads one frame from r and decodes its envelope. Any error
// leaves the stream unusable; the caller drops the connection.
func (d *streamDecoder) readFrame(r io.Reader) (*envelope, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	h := binary.BigEndian.Uint32(hdr[:])
	n := int64(h &^ restartBit)
	if n > FrameLimit() {
		return nil, fmt.Errorf("%w (%d bytes announced)", ErrFrameTooLarge, n)
	}
	body, err := d.readBody(r, int(n))
	if err != nil {
		return nil, err
	}
	return d.decode(h&restartBit != 0, body)
}

// decodeFrame decodes a whole frame produced in-process by
// streamEncoder.encode, so its header needs no checks.
func (d *streamDecoder) decodeFrame(frame []byte) (*envelope, error) {
	return d.decode(binary.BigEndian.Uint32(frame)&restartBit != 0, frame[4:])
}

// readBody reads an n-byte body into the decoder's buffer, growing it
// only as bytes arrive, so a peer that announces a large frame and sends
// little costs at most about twice what it sent, or readChunk.
func (d *streamDecoder) readBody(r io.Reader, n int) ([]byte, error) {
	buf := d.buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), readChunk))
		buf = slices.Grow(buf, step)
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, fmt.Errorf("transport: truncated frame (%d of %d bytes): %w", len(buf), n, err)
		}
	}
	if cap(buf) <= streamKeepBytes {
		d.buf = buf
	} else {
		d.buf = nil
	}
	return buf, nil
}

// decode decodes the one envelope a frame body holds.
func (d *streamDecoder) decode(restart bool, body []byte) (*envelope, error) {
	if restart {
		d.dec = gob.NewDecoder(&d.body)
	} else if d.dec == nil {
		return nil, errNoStream
	}
	env, err := d.decodeEnvelope(body)
	if err != nil || len(body) > streamKeepBytes {
		d.dec = nil
	}
	if err != nil {
		return nil, fmt.Errorf("transport: corrupt frame: %w", err)
	}
	return env, nil
}

// decodeEnvelope decodes body on the current stream and checks that
// the envelope consumed all of it.
func (d *streamDecoder) decodeEnvelope(body []byte) (*envelope, error) {
	if err := wholeMessages(body); err != nil {
		return nil, err
	}
	d.body.Reset(body)
	var env envelope
	if err := d.dec.Decode(&env); err != nil {
		return nil, err
	}
	if left := d.body.Len(); left != 0 {
		return nil, fmt.Errorf("%d bytes left after the envelope", left)
	}
	return &env, nil
}

// wholeMessages checks that body is a sequence of complete gob messages
// (each a uint byte count followed by that many bytes). gob allocates a
// message's buffer from its count before reading it, so checking counts
// against the bytes actually present keeps a few forged bytes from
// sizing an allocation.
func wholeMessages(body []byte) error {
	for len(body) > 0 {
		n, w, ok := gobUint(body)
		if !ok || n > uint64(len(body)-w) {
			return errors.New("gob message overruns the frame")
		}
		body = body[w+int(n):]
	}
	return nil
}

// gobUint decodes one gob unsigned integer: a byte below 0x80 is the
// value; otherwise it is the negated count (1 to 8) of big-endian bytes
// that follow.
func gobUint(b []byte) (v uint64, width int, ok bool) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1, true
	}
	k := -int(int8(b[0])) // 1..128 for bytes 0xff..0x80
	if k > 8 || len(b) < 1+k {
		return 0, 0, false
	}
	for _, c := range b[1 : 1+k] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + k, true
}
