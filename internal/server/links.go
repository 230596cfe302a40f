package server

import (
	"errors"
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

// links is the one way a cluster member is reached, by the server's
// fan-in (readMember) and by the cluster client alike: a free list of
// idle connections to one address. Safe for concurrent use.
type links struct {
	addr string

	dials  atomic.Uint64 // attempts that dialed
	reused atomic.Uint64 // attempts answered over an idle link

	mu     sync.Mutex
	idle   []*Client // most recently used last
	closed bool
}

// do runs op — one request and its reply — on a link to the member:
// an idle one when there is one, a fresh dial otherwise. One deadline
// covers the whole attempt, dial included, so it costs at most timeout
// however the time splits. The link goes back on the free list only
// after a clean reply or a server ERR; a transport error, an expired
// deadline or a short frame closes it, so a half-dead socket cannot
// poison a later attempt. When the link that failed was an idle one the
// failure may only mean the member restarted since it was last used:
// all of that member's idle links are dropped (what broke one broke
// them all) and op runs once more on a fresh dial, inside the same
// deadline — free of charge to the caller's retry budget and to its
// time budget.
func (l *links) do(timeout time.Duration, op func(*Client) error) error {
	deadline := time.Now().Add(timeout)
	c := l.take()
	for {
		idle := c != nil
		if !idle {
			l.dials.Add(1)
			conn, err := (&net.Dialer{Deadline: deadline}).Dial("tcp", l.addr)
			if err != nil {
				return err
			}
			c = newClient(conn)
		}
		c.SetDeadline(deadline)
		err := op(c)
		var re *RemoteError
		if err == nil || errors.As(err, &re) {
			// Done, or the server answered: the connection is fine.
			if idle {
				l.reused.Add(1)
			}
			l.put(c)
			return err
		}
		c.conn.Close()
		if !idle {
			return err
		}
		l.drop()
		c = nil
	}
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
