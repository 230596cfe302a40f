// Package cluster holds the topology-free pieces of the multi-node
// aggregation plane: a consistent-hash ring routing slot keys to
// nodes, and the registry-driven fan-in reduction that merges encoded
// peer snapshots through window.Reduce, the one frame reduce. Neither
// half touches the network — the server's peer mode and the cluster
// client both build on them — and neither holds any per-family code:
// the PODS'12 theorem says the merge is correct over any topology, so
// the fold that rolls up a node's epochs serves the network too.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// defaultReplicas is the number of virtual points each node projects
// onto the ring. 128 keeps the expected per-node key share within a
// few percent of uniform while the ring stays a few KiB per node.
const defaultReplicas = 128

// ringPoint is one virtual node position.
type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring over a fixed node list.
// Key→node assignment depends only on the node names, not their order
// or count history: adding or removing one node remaps only the keys
// that hashed to its virtual points, which is what lets a cluster
// grow without reshuffling every slot. Safe for concurrent use.
type Ring struct {
	nodes  []string
	points []ringPoint
}

// NewRing builds a ring over the node list (node addresses, typically)
// with the given number of virtual points per node; replicas < 1
// selects the default. Duplicate or empty node names are an error —
// a duplicated address would silently double a node's key share.
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if replicas < 1 {
		replicas = defaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	r := &Ring{
		nodes:  append([]string(nil), nodes...),
		points: make([]ringPoint, 0, len(nodes)*replicas),
	}
	for i, n := range r.nodes {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, v), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		// Colliding points tie-break on the node name so the ring is
		// identical no matter the input order of the node list.
		return r.nodes[pa.node] < r.nodes[pb.node]
	})
	return r, nil
}

// Nodes returns the ring's node list in construction order. The slice
// is shared; callers must not mutate it.
func (r *Ring) Nodes() []string { return r.nodes }

// Owner returns the node owning the key: the first virtual point at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.ownerIndex(key)]
}

// OwnerIndex returns the owning node's index into Nodes().
func (r *Ring) OwnerIndex(key string) int { return r.ownerIndex(key) }

func (r *Ring) ownerIndex(key string) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// pointHash positions one virtual node on the ring. FNV-1a over
// "<node>#<replica>" is deterministic across processes — every client
// and every server computes the same ring from the same peer list.
func pointHash(node string, replica int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{'#'})
	var buf [4]byte
	buf[0] = byte(replica)
	buf[1] = byte(replica >> 8)
	buf[2] = byte(replica >> 16)
	buf[3] = byte(replica >> 24)
	h.Write(buf[:])
	return h.Sum64()
}

// keyHash positions a slot key on the ring.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}
