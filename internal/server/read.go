package server

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/window"
)

// query is one read of the aggregation plane: the named slot's whole
// state, or — when ranged — its epoch range [from, to] with 0 meaning
// "oldest retained" / "through the live epoch". Nodes advance epochs on
// the same tick (or the operator's AdvanceWindows cadence), so
// cluster-wide a range means the same wall-clock span on every member.
type query struct {
	slot     string
	ranged   bool
	from, to uint64
}

// parseQuery parses a read command line. verb is the upper-cased
// command: PULL or QWIN, with a trailing C asking for the cluster-wide
// answer.
func parseQuery(verb string, fields []string) (q query, clusterWide bool, err error) {
	base, clusterWide := strings.CutSuffix(verb, "C")
	if base == "PULL" {
		if len(fields) != 2 {
			return q, false, fmt.Errorf("usage: %s <slot>", verb)
		}
		return query{slot: fields[1]}, clusterWide, nil
	}
	if len(fields) != 4 {
		return q, false, fmt.Errorf("usage: %s <slot> <from> <to>", verb)
	}
	from, err1 := strconv.ParseUint(fields[2], 10, 64)
	to, err2 := strconv.ParseUint(fields[3], 10, 64)
	if err1 != nil || err2 != nil {
		return q, false, fmt.Errorf("bad epoch range %q %q", fields[2], fields[3])
	}
	return query{slot: fields[1], ranged: true, from: from, to: to}, clusterWide, nil
}

// writeLine writes the command line that asks for q, node-local or
// cluster-wide.
func (q query) writeLine(w io.Writer, clusterWide bool) {
	c := ""
	if clusterWide {
		c = "C"
	}
	if q.ranged {
		fmt.Fprintf(w, "QWIN%s %s %d %d\n", c, q.slot, q.from, q.to)
	} else {
		fmt.Fprintf(w, "PULL%s %s\n", c, q.slot)
	}
}

// local answers q from one node's own state.
func (q query) local(n *Node) (kind string, frame []byte, err error) {
	if q.ranged {
		return n.WindowEncoded(q.slot, q.from, q.to)
	}
	return n.Encoded(q.slot)
}

// noData is the answer to a cluster-wide q no member holds anything
// for; IsNoData recognises it, in process and as an ERR reply.
func (q query) noData() error {
	if q.ranged {
		return fmt.Errorf("slot %q: %w in [%d, %d]", q.slot, window.ErrNoData, q.from, q.to)
	}
	return fmt.Errorf("%w %q", errNoSlot, q.slot)
}

// gather answers q cluster-wide: read answers it for member i, all
// members are read concurrently, and the frames are reduced in
// member-list order — the order every node and client shares, which is
// what makes the answer byte-identical wherever it is computed. How a
// member is reached (in process, a fresh dial with a retry budget, a
// cached connection) is the caller's policy and the only thing the
// server's and the client's fan-in differ in. Members holding nothing
// for q contribute nothing — that is what lets a star fan-in span nodes
// that never saw the slot — and any other failure turns the whole
// answer into one partial-result error naming every failed member: the
// cluster never silently serves an answer missing a member's share.
func gather(q query, members []string, read func(i int) ([]byte, error)) (string, []byte, error) {
	frames := make([][]byte, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[i], errs[i] = read(i)
		}()
	}
	wg.Wait()
	var failed []string
	held := frames[:0]
	for i, err := range errs {
		switch {
		case err == nil:
			held = append(held, frames[i])
		case !IsNoData(err):
			failed = append(failed, fmt.Sprintf("peer %s: %v", members[i], err))
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed) // deterministic, by address
		return "", nil, fmt.Errorf("partial result (%d/%d peers ok): %s",
			len(members)-len(failed), len(members), strings.Join(failed, "; "))
	}
	if len(held) == 0 {
		return "", nil, q.noData()
	}
	return cluster.ReduceEncoded(held)
}

// DefaultPeerTimeout bounds one peer read (dial + request + reply)
// during a cluster fan-in when SetPeers is given no explicit timeout.
const DefaultPeerTimeout = 2 * time.Second

// SetPeers enables coordinator-less peer mode: peers is the full
// cluster member list (every node's listen address, this one
// included) and self names this node's own entry, which is answered
// from local state instead of a network round-trip. With peers set,
// the PULLC and QWINC commands answer cluster-wide queries by reading
// the corresponding single-node PULL/QWIN from every peer concurrently
// and reducing the snapshots in peer-list order (gather) — any node can
// be asked, and every node computes the same answer. timeout bounds
// each attempt at a peer read, dial included (<= 0 selects
// DefaultPeerTimeout); retries is the number of re-dials after a failed
// read (< 0 selects 1). Call before Serve.
//
// self must be an entry of peers: a node that cannot find itself in the
// list would fan in without its own share, so the configuration is
// rejected and peer mode stays off.
//
// Peer-mode queries never recurse: the fan-out sends single-node
// PULL/QWIN, so a cycle in the peer list costs nothing.
func (s *Server) SetPeers(self string, peers []string, timeout time.Duration, retries int) error {
	at := slices.Index(peers, self)
	if at < 0 {
		return fmt.Errorf("server: this node's address %q is not an entry of the peer list %q", self, peers)
	}
	s.peers = slices.Clone(peers)
	s.selfAt = at
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	if retries < 0 {
		retries = 1
	}
	s.peerTimeout = timeout
	s.peerRetries = retries
	return nil
}

// Peers returns the configured cluster member list (nil outside peer
// mode). The slice is shared; callers must not mutate it.
func (s *Server) Peers() []string { return s.peers }

// readMember answers q for member i of the peer list: this node's own
// entry from local state, any other with a single-node read over a
// fresh connection per attempt, which keeps a half-dead socket from
// poisoning the retry. Each attempt runs under one deadline (reach),
// so a hung peer costs at most (retries+1)·timeout. The local share
// counts as a peer read so METRICS adds up.
func (s *Server) readMember(q query, i int) (frame []byte, err error) {
	if i == s.selfAt {
		_, frame, err = q.local(s.Node)
	} else {
		for attempt := 0; attempt <= s.peerRetries; attempt++ {
			if attempt > 0 {
				s.fanRetries.Add(1)
			}
			var c *Client
			if c, err = reach(nil, s.peers[i], s.peerTimeout); err != nil {
				continue
			}
			_, frame, err = c.read(q, false)
			c.Close()
			if err == nil || IsNoData(err) {
				break
			}
		}
	}
	if err == nil || IsNoData(err) {
		s.fanPeerOK.Add(1)
	} else {
		s.fanPeerErr.Add(1)
	}
	return frame, err
}

// cmdRead handles PULL, QWIN, PULLC and QWINC. The cluster-wide verbs
// outside peer mode degrade to the node-local read — a cluster of one.
func (s *Server) cmdRead(verb string, fields []string, w *bufio.Writer) {
	q, clusterWide, err := parseQuery(verb, fields)
	if err == nil {
		var kind string
		var frame []byte
		if clusterWide && len(s.peers) > 0 {
			s.fanouts.Add(1)
			kind, frame, err = gather(q, s.peers, func(i int) ([]byte, error) { return s.readMember(q, i) })
		} else {
			kind, frame, err = q.local(s.Node)
		}
		if err == nil {
			fmt.Fprintf(w, "OK %s %d\n", kind, len(frame))
			w.Write(frame)
			return
		}
	}
	fmt.Fprintf(w, "ERR %v\n", err)
}
