package server

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// maxIdleLinks caps the idle connections kept per cluster member. A
// fan-in holds one link per remote member while it runs, so the cap is
// the number of concurrent cluster reads a node serves without dialing;
// reads beyond it still work — their links are dialed, and hung up
// afterwards instead of kept.
const maxIdleLinks = 4

// links is the one way a cluster member is reached, by the fan-in
// (fanIn.gather, server and cluster client alike) and by the cluster
// client's routed writes: a free list of idle connections to one
// address. Safe for concurrent use.
type links struct {
	addr string

	dials  atomic.Uint64 // attempts that dialed
	reused atomic.Uint64 // attempts answered over an idle link

	mu     sync.Mutex
	idle   []*Client // most recently used last
	closed bool
}

// do runs op — one request and its reply — on a link to the member
// under one deadline, timeout from now (attempt).
func (l *links) do(timeout time.Duration, op func(*Client) error) error {
	return l.attempt(time.Now().Add(timeout), false, op)
}

// attempt runs op on a link to the member: an idle one when there is
// one and fresh is unset, a fresh dial otherwise. The deadline covers
// the whole attempt, dial included, so it costs at most until then
// however the time splits. When the link that failed was an idle one
// the failure may only mean the member restarted since it was last used
// (finish): op runs once more on a fresh dial, inside the same deadline
// — free of charge to the caller's retry budget and to its time budget.
func (l *links) attempt(deadline time.Time, fresh bool, op func(*Client) error) error {
	for {
		c, idle, err := l.open(deadline, fresh)
		if err != nil {
			return err
		}
		err = op(c)
		if !l.finish(c, idle, err) {
			return err
		}
		fresh = true
	}
}

// open returns a connection for an attempt that ends at deadline, the
// deadline set: the most recently used idle link, unless fresh is set
// or there is none, and a fresh dial otherwise. idle reports which.
func (l *links) open(deadline time.Time, fresh bool) (c *Client, idle bool, err error) {
	if !fresh {
		c = l.take()
	}
	if idle = c != nil; !idle {
		l.dials.Add(1)
		conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", l.addr)
		if err != nil {
			return nil, false, err
		}
		c = newClient(conn)
	}
	c.SetDeadline(deadline)
	return c, idle, nil
}

// finish ends an attempt that ran on c and ended in err. The link goes
// back on the free list only after a clean reply or a server ERR; a
// transport error, an expired deadline or a short frame closes it, so a
// half-dead socket cannot poison a later attempt. When the link that
// failed was an idle one, all of the member's idle links are dropped
// (what broke one broke them all) and finish reports that the attempt
// may be made again on a fresh dial.
func (l *links) finish(c *Client, idle bool, err error) (redial bool) {
	if err == nil || isRemote(err) {
		// Done, or the server answered: the connection is fine.
		if idle {
			l.reused.Add(1)
		}
		l.put(c)
		return false
	}
	c.conn.Close()
	if idle {
		l.drop()
	}
	return idle
}

// send starts an attempt at the member that ends at deadline: it
// writes q's single-node request on an idle link — or, when there is
// none or the write finds the idle one dead, on a fresh dial — and
// returns the link for receive.
func (l *links) send(q query, deadline time.Time) (c *Client, idle bool, err error) {
	for fresh := false; ; fresh = true {
		if c, idle, err = l.open(deadline, fresh); err != nil {
			return nil, false, err
		}
		if err = c.send(q, false); err == nil {
			return c, idle, nil
		}
		if !l.finish(c, idle, err) {
			return nil, false, err
		}
	}
}

// lateLook is how long a reply is waited for when its turn to be read
// comes only after the deadline has passed — the time went to a slower
// member read before it. Go fails a read past its deadline without
// looking, so without it a reply there since long before would be lost.
const lateLook = time.Millisecond

// receive reads, by deadline — or lateLook from now, if that is later —
// the reply to the request send wrote on c, and ends the attempt
// (finish). When c was an idle link that turns out dead, the request is
// made once more on a fresh dial within the same deadline.
func (l *links) receive(c *Client, idle bool, q query, deadline time.Time) (frame []byte, err error) {
	if late := time.Now().Add(lateLook); late.After(deadline) {
		deadline = late
		c.SetDeadline(deadline)
	}
	if _, frame, err = c.receive(); !l.finish(c, idle, err) {
		return frame, err
	}
	err = l.attempt(deadline, true, func(c *Client) (e error) {
		_, frame, e = c.read(q, false)
		return e
	})
	return frame, err
}

// take removes and returns the most recently used idle link, or nil.
func (l *links) take() *Client {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.idle) == 0 {
		return nil
	}
	c := l.idle[len(l.idle)-1]
	l.idle = l.idle[:len(l.idle)-1]
	return c
}

// put parks c as idle, or hangs it up when the free list is full or
// closed.
func (l *links) put(c *Client) {
	l.mu.Lock()
	keep := !l.closed && len(l.idle) < maxIdleLinks
	if keep {
		l.idle = append(l.idle, c)
	}
	l.mu.Unlock()
	if !keep {
		c.Close()
	}
}

// drop hangs up every idle link, returning the first error.
func (l *links) drop() error {
	l.mu.Lock()
	idle := l.idle
	l.idle = nil
	l.mu.Unlock()
	var first error
	for _, c := range idle {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close drops the idle links and makes put hang up any link still out.
func (l *links) close() {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	l.drop()
}

// idleCount returns the number of idle links.
func (l *links) idleCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.idle)
}
