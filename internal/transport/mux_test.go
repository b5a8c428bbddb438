package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prism/internal/protocol"
)

// gateHandler parks requests whose Table names a gate until that gate is
// released; everything else echoes immediately.
type gateHandler struct {
	mu      sync.Mutex
	gates   map[string]chan struct{}
	entered chan string
}

func newGateHandler() *gateHandler {
	return &gateHandler{gates: make(map[string]chan struct{}), entered: make(chan string, 64)}
}

func (h *gateHandler) gate(name string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	g, ok := h.gates[name]
	if !ok {
		g = make(chan struct{})
		h.gates[name] = g
	}
	return g
}

func (h *gateHandler) release(name string) { close(h.gate(name)) }

func (h *gateHandler) Handle(ctx context.Context, req any) (any, error) {
	r, ok := req.(protocol.PSIRequest)
	if !ok || !strings.HasPrefix(r.Table, "gate/") {
		return req, nil
	}
	h.entered <- r.Table
	select {
	case <-h.gate(r.Table):
		return req, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestMuxOutOfOrderReplies asserts a cheap request pipelined behind a
// slow one on the same connection completes first, and that the demux
// routes each reply to the right caller.
func TestMuxOutOfOrderReplies(t *testing.T) {
	h := newGateHandler()
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		reply, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "gate/slow", QueryID: "slow"})
		if err == nil && reply.(protocol.PSIRequest).QueryID != "slow" {
			err = fmt.Errorf("slow call got %#v", reply)
		}
		slowDone <- err
	}()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("slow request never reached the server")
	}

	// The fast call rides the same connection and must not queue behind
	// the parked slow handler.
	fast, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "t", QueryID: "fast"})
	if err != nil {
		t.Fatalf("fast call behind a slow one: %v", err)
	}
	if fast.(protocol.PSIRequest).QueryID != "fast" {
		t.Fatalf("fast reply mismatch: %#v", fast)
	}
	select {
	case err := <-slowDone:
		t.Fatalf("slow call finished before release (err=%v)", err)
	default:
	}

	h.release("gate/slow")
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatalf("slow call: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow call never completed after release")
	}
}

// TestMuxInterleavedConcurrentCalls hammers one connection with mixed
// slow/fast traffic and asserts every reply matches its request id.
func TestMuxInterleavedConcurrentCalls(t *testing.T) {
	h := newGateHandler()
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()

	const slow = 8
	var wg sync.WaitGroup
	errs := make(chan error, 80)
	for i := 0; i < slow; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("gate/%d", i)
			got, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: name, QueryID: name})
			if err != nil {
				errs <- err
				return
			}
			if got.(protocol.PSIRequest).QueryID != name {
				errs <- fmt.Errorf("reply mismatch for %s", name)
			}
		}(i)
	}
	// Wait for every slow request to be parked server-side, then verify
	// fast traffic still flows around them.
	for i := 0; i < slow; i++ {
		select {
		case <-h.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d slow requests arrived", i, slow)
		}
	}
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qid := fmt.Sprintf("fast-%d", i)
			got, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "t", QueryID: qid})
			if err != nil {
				errs <- err
				return
			}
			if got.(protocol.PSIRequest).QueryID != qid {
				errs <- fmt.Errorf("reply mismatch for %s", qid)
			}
		}(i)
	}
	for i := 0; i < slow; i++ {
		h.release(fmt.Sprintf("gate/%d", i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxCancelOnePendingCall asserts cancelling a call that is waiting
// for its reply leaves the connection — and its sibling in-flight calls —
// fully intact.
func TestMuxCancelOnePendingCall(t *testing.T) {
	h := newGateHandler()
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()

	// Sibling call, parked server-side.
	sibDone := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "gate/sib"})
		sibDone <- err
	}()
	// Victim call, parked server-side, then cancelled client-side.
	ctx, cancel := context.WithCancel(context.Background())
	vicDone := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, "s", protocol.PSIRequest{Table: "gate/vic"})
		vicDone <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-h.entered:
		case <-time.After(5 * time.Second):
			t.Fatal("requests never reached the server")
		}
	}
	cancel()
	select {
	case err := <-vicDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("victim err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled call did not return")
	}

	// The sibling must be unaffected…
	h.release("gate/sib")
	select {
	case err := <-sibDone:
		if err != nil {
			t.Fatalf("sibling call failed after victim's cancellation: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sibling call never completed")
	}
	// …and the victim's stranded reply (the handler returns ctx.Err only
	// when the serve ctx dies, so release it) must be discarded without
	// corrupting a fresh call on the same connection.
	h.release("gate/vic")
	if _, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "t", QueryID: "after"}); err != nil {
		t.Fatalf("connection unusable after cancellation: %v", err)
	}
}

// TestMuxConnDropFailsAllPending asserts a mid-flight connection loss
// fails every pending call promptly.
func TestMuxConnDropFailsAllPending(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const n = 6
	got := make(chan struct{}, n)
	var connCh = make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		connCh <- conn
		var dec streamDecoder
		for {
			if _, err := dec.readFrame(conn); err != nil {
				return
			}
			got <- struct{}{}
		}
	}()

	c := NewTCPClient(map[string]string{"s": ln.Addr().String()})
	defer c.Close()
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := c.Call(context.Background(), "s", protocol.PSIRequest{QueryID: fmt.Sprint(i)})
			done <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d requests arrived before drop", i, n)
		}
	}
	(<-connCh).Close() // server vanishes with n replies owed
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("pending call survived connection drop")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d still pending after connection drop", i)
		}
	}
}

// TestMuxHandlerPanicBecomesErrorEnvelope asserts a panicking handler
// produces a per-request error and leaves the shared connection serving.
func TestMuxHandlerPanicBecomesErrorEnvelope(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, req any) (any, error) {
		if r, ok := req.(protocol.PSIRequest); ok && r.Table == "panic" {
			panic("table flipped")
		}
		return req, nil
	})
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	defer c.Close()
	_, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "panic"})
	if err == nil || !strings.Contains(err.Error(), "handler panic") {
		t.Fatalf("err = %v, want handler panic envelope", err)
	}
	if _, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "ok"}); err != nil {
		t.Fatalf("connection dead after handler panic: %v", err)
	}
}

// TestMuxDialCoalescing asserts concurrent first calls to one address
// share a single dial (and thus one connection).
func TestMuxDialCoalescing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var accepted atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	countingLn := &countListener{Listener: ln, n: &accepted}
	go Serve(ctx, countingLn, echoHandler{})

	c := NewTCPClient(map[string]string{"s": ln.Addr().String()})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "t"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := accepted.Load(); n != 1 {
		t.Fatalf("16 concurrent first calls opened %d connections, want 1", n)
	}
}

type countListener struct {
	net.Listener
	n *atomic.Int64
}

func (l *countListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return conn, err
}

// TestMuxDeadTargetDoesNotBlockOthers asserts an unreachable target only
// fails its own calls: the dial happens outside the client-wide lock, so
// a healthy target keeps answering.
func TestMuxDeadTargetDoesNotBlockOthers(t *testing.T) {
	// A listener that is closed immediately: dials are refused.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	live := startTCP(t, echoHandler{})
	c := NewTCPClient(map[string]string{"dead": deadAddr, "live": live})
	defer c.Close()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), "dead", protocol.PSIRequest{}); err == nil {
				t.Error("call to dead target succeeded")
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Call(context.Background(), "live", protocol.PSIRequest{Table: "t"}); err != nil {
				t.Errorf("live target failed while dead target was dialling: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestMuxClientCloseFailsPending asserts Close fails in-flight calls
// instead of stranding them.
func TestMuxClientCloseFailsPending(t *testing.T) {
	h := newGateHandler()
	addr := startTCP(t, h)
	c := NewTCPClient(map[string]string{"s": addr})
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), "s", protocol.PSIRequest{Table: "gate/x"})
		done <- err
	}()
	select {
	case <-h.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("request never arrived")
	}
	c.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pending call survived client Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call not failed by Close")
	}
}

// TestMuxSerializedModeStillCorrect runs concurrent traffic with the
// pipelining bound forced to 1 (the pre-multiplexing wire behaviour) and
// asserts plain correctness is preserved.
func TestMuxSerializedModeStillCorrect(t *testing.T) {
	addr := startTCP(t, echoHandler{})
	c := NewTCPClientOpts(map[string]string{"s": addr}, ClientOptions{PerConnInflight: 1})
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qid := fmt.Sprint(i)
			got, err := c.Call(context.Background(), "s", protocol.PSIRequest{QueryID: qid})
			if err != nil {
				t.Error(err)
				return
			}
			if got.(protocol.PSIRequest).QueryID != qid {
				t.Errorf("reply mismatch for %s", qid)
			}
		}(i)
	}
	wg.Wait()
}

// TestNetworkPerAddrInflight asserts the in-process fabric honours the
// per-address pipelining bound the TCP transport applies per connection.
func TestNetworkPerAddrInflight(t *testing.T) {
	var cur, peak atomic.Int64
	n := NewNetwork()
	n.SetPerAddrInflight(2)
	n.Register("s", HandlerFunc(func(context.Context, any) (any, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return nil, nil
	}))
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Call(context.Background(), "s", 1); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Fatalf("per-address bound 2 exceeded: peak %d", p)
	}
	// A queued caller must honour its context.
	n.Register("block", HandlerFunc(func(ctx context.Context, _ any) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}))
	bg, bgCancel := context.WithCancel(context.Background())
	defer bgCancel()
	for i := 0; i < 2; i++ {
		go n.Call(bg, "block", 1)
	}
	time.Sleep(10 * time.Millisecond) // let both occupy the slots
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := n.Call(ctx, "block", 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued call err = %v, want deadline exceeded", err)
	}
}
