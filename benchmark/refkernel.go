package main

// The reference kernel is the ruler's ruler: a fixed piece of work that
// imports nothing from module repro, so no later change to the program
// can speed it up. It is run before and after every measured interval,
// and every timing is reported relative to it (see normTime). Its mix —
// cache-unfriendly memory increments, a buffer fill, and a loopback
// round-trip with a checksum on the far side — was chosen because the
// machine's minute-scale drift moves this mix the way it moves the
// workloads; a pure-CPU loop or a bare echo did not track it.

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

const (
	refTableLen   = 64 << 10 // uint64 entries per goroutine (512 KiB)
	refIncrements = 4096     // table increments per iteration
	refBufLen     = 8 << 10  // bytes written to the echo peer per iteration
	refReplyLen   = 64       // bytes the echo peer answers
	refClients    = 2
)

// refKernel owns the echo peer and the two client connections, set up
// once per process so that a timed run allocates nothing.
type refKernel struct {
	ln    net.Listener
	conns [refClients]net.Conn
	table [refClients][]uint64
	buf   [refClients][]byte
	reply [refClients][]byte
	state [refClients]uint64
	peers sync.WaitGroup
	iters int
}

// newRefKernel starts the loopback echo peer and connects both
// clients. iters is the number of iterations each client performs per
// run.
func newRefKernel(iters int) (*refKernel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	k := &refKernel{ln: ln, iters: iters}
	for i := range k.conns {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			k.close()
			return nil, fmt.Errorf("reference kernel: %w", err)
		}
		k.conns[i] = c
		peer, err := ln.Accept()
		if err != nil {
			k.close()
			return nil, fmt.Errorf("reference kernel: %w", err)
		}
		k.peers.Add(1)
		go func() {
			defer k.peers.Done()
			echoPeer(peer)
		}()
		k.table[i] = make([]uint64, refTableLen)
		k.buf[i] = make([]byte, refBufLen)
		k.reply[i] = make([]byte, refReplyLen)
		k.state[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	return k, nil
}

// echoPeer reads fixed-size buffers, checksums each and answers with a
// fixed-size reply carrying the checksum, until the client hangs up.
func echoPeer(c net.Conn) {
	defer c.Close()
	in := make([]byte, refBufLen)
	out := make([]byte, refReplyLen)
	for {
		if _, err := io.ReadFull(c, in); err != nil {
			return
		}
		sum := crc32.ChecksumIEEE(in)
		out[0], out[1], out[2], out[3] = byte(sum), byte(sum>>8), byte(sum>>16), byte(sum>>24)
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

// run performs the fixed work on both clients concurrently and returns
// the wall time in seconds.
func (k *refKernel) run() (float64, error) {
	var wg sync.WaitGroup
	errs := make([]error, refClients)
	t0 := time.Now()
	for i := 0; i < refClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = k.client(i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference kernel: %w", err)
		}
	}
	return elapsed, nil
}

func (k *refKernel) client(i int) error {
	table, buf, reply, x := k.table[i], k.buf[i], k.reply[i], k.state[i]
	for it := 0; it < k.iters; it++ {
		for j := 0; j < refIncrements; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			table[x&(refTableLen-1)]++
		}
		for j := range buf {
			buf[j] = byte(x >> (uint(j) & 31))
		}
		if _, err := k.conns[i].Write(buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(k.conns[i], reply); err != nil {
			return err
		}
		want := crc32.ChecksumIEEE(buf)
		got := uint32(reply[0]) | uint32(reply[1])<<8 | uint32(reply[2])<<16 | uint32(reply[3])<<24
		if got != want {
			return fmt.Errorf("echo peer checksum %08x, want %08x", got, want)
		}
	}
	k.state[i] = x
	return nil
}

// close hangs up both clients, which ends the echo peers, and waits
// for them.
func (k *refKernel) close() {
	for _, c := range k.conns {
		if c != nil {
			c.Close()
		}
	}
	k.ln.Close()
	k.peers.Wait()
}
