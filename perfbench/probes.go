package main

import (
	"crypto/aes"
	"crypto/cipher"
	"io"
	"net"
	"time"

	"prism/internal/field"
	"prism/internal/perm"
	"prism/internal/prg"
	"prism/internal/share"
)

// probeReps is how many times each probe repeats; the median is kept.
const probeReps = 5

func medianTime(reps int, fn func()) time.Duration {
	xs := make([]float64, reps)
	for i := range xs {
		start := time.Now()
		fn()
		xs[i] = float64(time.Since(start).Nanoseconds())
	}
	return time.Duration(median(xs))
}

// kernelProbes times the protocol's vector kernels by direct calls at
// the workload's vector size (one cell per domain cell).
func kernelProbes(m *metrics, cells int) {
	g := prg.New(prg.SeedFromString("perfbench/kernels"))
	const delta = 113 // the paper's additive-group prime δ
	u16 := make([]uint16, cells)
	t := medianTime(probeReps, func() { g.FillUint16(u16, delta) })
	m.set("prg.fill16_mbps", "MB/s", float64(2*cells)/t.Seconds()/1e6)

	u64 := make([]uint64, cells)
	t = medianTime(probeReps, func() { g.Fill(u64, field.P) })
	m.set("prg.fill64_mbps", "MB/s", float64(8*cells)/t.Seconds()/1e6)

	t = medianTime(probeReps, func() { share.AdditiveSplitVector(g, u16, delta, 3) })
	m.set("share.additive_split_ns_per_cell", "ns", float64(t.Nanoseconds())/float64(cells))

	secrets := make([]field.Elem, cells)
	for i := range secrets {
		secrets[i] = field.Elem(u64[i])
	}
	t = medianTime(probeReps, func() { share.ShamirSplitVector(g, secrets, 1, 3) })
	m.set("share.shamir_split_ns_per_cell", "ns", float64(t.Nanoseconds())/float64(cells))

	p := perm.Random(g, cells)
	dst := make([]uint16, cells)
	t = medianTime(probeReps, func() { perm.Apply(p, u16, dst) })
	m.set("perm.apply_ns_per_cell", "ns", float64(t.Nanoseconds())/float64(cells))
}

// roofProbes measures the hardware ceilings the layers are set against:
// memory bandwidth (fetch and compute), AES-CTR throughput (PRG work)
// and loopback round-trip time (transport).
func roofProbes(m *metrics) error {
	const size = 32 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = byte(i)
	}
	t := medianTime(probeReps, func() { copy(dst, src) })
	m.set("roof.memcpy_gbps", "GB/s", float64(size)/t.Seconds()/1e9)

	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		return err
	}
	t = medianTime(probeReps, func() {
		cipher.NewCTR(block, make([]byte, aes.BlockSize)).XORKeyStream(dst, src)
	})
	m.set("roof.aesctr_gbps", "GB/s", float64(size)/t.Seconds()/1e9)

	rtt, err := loopbackRTT(2000)
	if err != nil {
		return err
	}
	m.set("roof.loopback_rtt_us", "us", rtt)
	return nil
}

// loopbackRTT ping-pongs one byte over a loopback TCP connection n times
// and returns the median round trip in µs.
func loopbackRTT(n int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	buf := make([]byte, 1)
	xs := make([]float64, n)
	for i := range xs {
		start := time.Now()
		if _, err := c.Write(buf); err != nil {
			c.Close()
			return 0, err
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			c.Close()
			return 0, err
		}
		xs[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	c.Close()
	<-done
	return median(xs), nil
}
