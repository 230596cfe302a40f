package server

import (
	"encoding"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// ClusterClient spreads one logical summaryd workload over a node
// list: pushes are routed to the slot key's owner on a consistent-hash
// ring (every client computes the same ring from the same node list,
// so all writers of a slot land on one node without coordination), and
// PullAll answers cluster-wide reads by pulling every node's snapshot
// concurrently and reducing them client-side — the very gather the
// server's PULLC runs (read.go), minus the extra network hop.
//
// A ClusterClient is NOT safe for concurrent use: it caches one
// connection per node and re-uses them across calls (PullAll uses each
// from exactly one goroutine at a time). Open one per goroutine.
type ClusterClient struct {
	ring    *cluster.Ring
	nodes   []string
	conns   []*Client // lazily dialed, index-aligned with nodes
	timeout time.Duration
}

// DialCluster builds a routing client over the node list. Connections
// are dialed lazily, so a cluster with a dead node can still be used
// until a call actually needs that node. timeout bounds each dial and
// each per-node operation (<= 0 selects DefaultPeerTimeout).
func DialCluster(nodes []string, timeout time.Duration) (*ClusterClient, error) {
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	return &ClusterClient{
		ring:    ring,
		nodes:   ring.Nodes(),
		conns:   make([]*Client, len(ring.Nodes())),
		timeout: timeout,
	}, nil
}

// Close closes every open connection, returning the first error.
func (cc *ClusterClient) Close() error {
	var first error
	for i, c := range cc.conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
		cc.conns[i] = nil
	}
	return first
}

// Nodes returns the cluster's node list. The slice is shared; callers
// must not mutate it.
func (cc *ClusterClient) Nodes() []string { return cc.nodes }

// Owner returns the node a slot key routes to.
func (cc *ClusterClient) Owner(slot string) string { return cc.ring.Owner(slot) }

// withConn runs op on node i's cached connection, dialing on first
// use; each attempt runs under one deadline (reach). A transport
// failure (not a server ERR reply) drops the cached connection and
// retries once on a fresh dial, so one stale socket — a node restart,
// an idle-timeout — does not poison the client.
func (cc *ClusterClient) withConn(i int, op func(*Client) error) error {
	for {
		cached := cc.conns[i] != nil
		c, err := reach(cc.conns[i], cc.nodes[i], cc.timeout)
		if err != nil {
			return err
		}
		cc.conns[i] = c
		err = op(c)
		c.SetDeadline(time.Time{})
		var re *RemoteError
		if err == nil || errors.As(err, &re) {
			// Done, or the server answered: the connection is fine.
			return err
		}
		c.conn.Close()
		cc.conns[i] = nil
		if !cached {
			return err
		}
	}
}

// toOwner runs op on the connection to the slot key's owning node,
// naming the node in any transport failure.
func (cc *ClusterClient) toOwner(slot string, op func(*Client) error) error {
	i := cc.ring.OwnerIndex(slot)
	err := cc.withConn(i, op)
	var re *RemoteError
	if err != nil && !errors.As(err, &re) {
		return fmt.Errorf("node %s: %w", cc.nodes[i], err)
	}
	return err
}

// Push routes the summary to the slot key's owning node and merges it
// there, returning that node's slot weight after the merge.
func (cc *ClusterClient) Push(slot, kind string, summary encoding.BinaryMarshaler) (n uint64, err error) {
	err = cc.toOwner(slot, func(c *Client) (e error) {
		n, e = c.Push(slot, kind, summary)
		return e
	})
	return n, err
}

// PushBatch routes the whole batch to the slot key's owning node with
// PUSHB round-trips, returning that node's slot weight after the batch.
func (cc *ClusterClient) PushBatch(slot, kind string, summaries []encoding.BinaryMarshaler) (n uint64, err error) {
	err = cc.toOwner(slot, func(c *Client) (e error) {
		n, e = c.PushBatch(slot, kind, summaries)
		return e
	})
	return n, err
}

// readAll answers q cluster-wide, client-side: every node is read over
// its cached connection (each used by exactly one of gather's
// goroutines) and the frames reduce in node-list order, so the answer
// is byte-identical to the server-side fan-in over the same member
// list. Nodes holding nothing contribute nothing; a node that cannot
// be read fails the whole call with a partial-result error naming it —
// the caller is never handed an answer silently missing a node's share.
func (cc *ClusterClient) readAll(q query) (string, []byte, error) {
	kind, frame, err := gather(q, cc.nodes, func(i int) (frame []byte, err error) {
		err = cc.withConn(i, func(c *Client) (e error) {
			_, frame, e = c.read(q, false)
			return e
		})
		return frame, err
	})
	if err != nil {
		return "", nil, fmt.Errorf("cluster: %w", err)
	}
	return kind, frame, nil
}

// PullAllFrame fetches the cluster-wide merged frame of the named
// slot, reduced client-side (readAll).
func (cc *ClusterClient) PullAllFrame(slot string) (string, []byte, error) {
	return cc.readAll(query{slot: slot})
}

// PullAll decodes the cluster-wide merged summary of the named slot
// into out, returning the slot's kind.
func (cc *ClusterClient) PullAll(slot string, out encoding.BinaryUnmarshaler) (string, error) {
	kind, buf, err := cc.PullAllFrame(slot)
	return decodeInto(out, kind, buf, err)
}

// PullAllAny is PullAll without the caller naming the type (as
// PullAny).
func (cc *ClusterClient) PullAllAny(slot string) (string, any, error) {
	kind, buf, err := cc.PullAllFrame(slot)
	return decodeAny(slot, kind, buf, err)
}

// QueryWindowAllFrame is PullAllFrame over an epoch range: every
// node's QWIN answer for [from, to], reduced in node-list order.
func (cc *ClusterClient) QueryWindowAllFrame(slot string, from, to uint64) (string, []byte, error) {
	return cc.readAll(query{slot: slot, ranged: true, from: from, to: to})
}

// QueryWindowAll decodes the cluster-wide merged summary of the epoch
// range [from, to] into out, returning the slot's kind.
func (cc *ClusterClient) QueryWindowAll(slot string, from, to uint64, out encoding.BinaryUnmarshaler) (string, error) {
	kind, buf, err := cc.QueryWindowAllFrame(slot, from, to)
	return decodeInto(out, kind, buf, err)
}
