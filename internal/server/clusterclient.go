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
// Nodes are reached as the server's fan-in reaches its peers, over
// links kept between calls (links.go): a call costs at most timeout per
// node, a transport failure (not a server ERR reply) closes the link,
// and a link gone stale — a node restart, an idle-timeout — is replaced
// by a fresh dial within the same call rather than poisoning the client.
//
// A ClusterClient is meant for one goroutine, which never needs more
// than one link per node. Open one per goroutine.
type ClusterClient struct {
	ring    *cluster.Ring
	nodes   []string
	links   []*links // lazily dialed, index-aligned with nodes
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
	cc := &ClusterClient{ring: ring, nodes: ring.Nodes(), timeout: timeout}
	for _, addr := range cc.nodes {
		cc.links = append(cc.links, &links{addr: addr})
	}
	return cc, nil
}

// Close closes every open connection, returning the first error.
func (cc *ClusterClient) Close() error {
	var first error
	for _, l := range cc.links {
		if err := l.drop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Nodes returns the cluster's node list. The slice is shared; callers
// must not mutate it.
func (cc *ClusterClient) Nodes() []string { return cc.nodes }

// Owner returns the node a slot key routes to.
func (cc *ClusterClient) Owner(slot string) string { return cc.ring.Owner(slot) }

// toOwner runs op on the connection to the slot key's owning node,
// naming the node in any transport failure.
func (cc *ClusterClient) toOwner(slot string, op func(*Client) error) error {
	i := cc.ring.OwnerIndex(slot)
	err := cc.links[i].do(cc.timeout, op)
	var re *RemoteError
	if err != nil && !errors.As(err, &re) {
		return fmt.Errorf("node %s: %w", cc.nodes[i], err)
	}
	return err
}

// Push routes the summary to the slot key's owning node and merges it
// there, returning that node's slot weight after the merge.
func (cc *ClusterClient) Push(slot, kind string, summary encoding.BinaryMarshaler) (n uint64, err error) {
	data, err := summary.MarshalBinary()
	if err != nil {
		return 0, err
	}
	err = cc.toOwner(slot, func(c *Client) (e error) {
		n, e = c.push(slot, kind, false, data)
		return e
	})
	return n, err
}

// PushBatch routes the whole batch to the slot key's owning node with
// PUSHB round-trips, returning that node's slot weight after the batch.
func (cc *ClusterClient) PushBatch(slot, kind string, summaries []encoding.BinaryMarshaler) (n uint64, err error) {
	frames, err := marshalAll(summaries)
	if err != nil {
		return 0, err
	}
	err = cc.toOwner(slot, func(c *Client) (e error) {
		n, e = c.push(slot, kind, true, frames...)
		return e
	})
	return n, err
}

// readAll answers q cluster-wide, client-side: every node is read over
// its link and the frames reduce in node-list order, so the answer
// is byte-identical to the server-side fan-in over the same member
// list. Nodes holding nothing contribute nothing; a node that cannot
// be read fails the whole call with a partial-result error naming it —
// the caller is never handed an answer silently missing a node's share.
func (cc *ClusterClient) readAll(q query) (string, []byte, error) {
	kind, frame, err := gather(q, cc.nodes, 0, func(i int) (frame []byte, err error) {
		err = cc.links[i].do(cc.timeout, func(c *Client) (e error) {
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
