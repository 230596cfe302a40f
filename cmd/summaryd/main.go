// Command summaryd runs the summary-aggregation daemon: workers PUSH
// framed summaries into named slots, the daemon merges them on
// arrival, and dashboards PULL the merged result — mergeable summaries
// as a service.
//
// Usage:
//
//	summaryd [-addr 127.0.0.1:7070] [-window] [-window-tick 1s]
//	         [-window-fan 8] [-window-levels 3]
//	         [-peers host1:7070,host2:7070,...] [-node-id host1:7070]
//	         [-peer-timeout 2s] [-peer-retries 1]
//
// -window enables the multi-resolution roll-up plane: every slot's
// pushes additionally feed a ladder of sealed per-epoch segments
// (epochs tick every -window-tick; a level-ℓ segment covers
// fan^ℓ epochs) and the QWIN command answers time-travel queries over
// any epoch range from the minimal precomputed-segment cover.
//
// -peers enables coordinator-less cluster mode: the flag lists every
// node's address (the same list on every node), -node-id names this
// node's own entry (it must be one, spelled as in the list, or the
// daemon refuses to start), and the PULLC/QWINC commands answer
// cluster-wide queries by fanning out to all peers and merging their
// snapshots — ask any node, get the whole cluster's answer. There is
// no leader: mergeable summaries make the fan-in correct from anywhere.
//
// On SIGTERM or SIGINT the daemon shuts down gracefully: it stops
// accepting connections, drains the ingest-front lanes (and seals the
// live window epoch), gives in-flight connections a grace period, and
// exits 0 — a final PULL served during the grace period sees every
// push that was acknowledged. In cluster mode peers keep idle
// connections to each other between fan-ins, and nothing tells them to
// hang up early: a draining node with such links waits its full -grace.
//
// Protocol documentation lives in internal/server. A quick session
// with netcat:
//
//	$ printf 'STAT\n' | nc 127.0.0.1 7070
//	OK 0
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/window"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	kinds := flag.Bool("kinds", false, "print the served summary kinds and exit")
	front := flag.Int("front", 0, "ingest-front lanes for every write, PUSH and PUSHB (0 = off, -1 = GOMAXPROCS); OK <n> is then the weight acknowledged so far")
	frontTick := flag.Duration("front-tick", 5*time.Millisecond, "ingest-front flush interval")
	win := flag.Bool("window", false, "enable windowed mode: per-slot roll-up planes and QWIN")
	winTick := flag.Duration("window-tick", time.Second, "windowed-mode epoch length")
	winFan := flag.Int("window-fan", 8, "roll-up fan-in (epochs per next-level segment)")
	winLevels := flag.Int("window-levels", 3, "roll-up ladder levels (1 = flat per-epoch ring)")
	peers := flag.String("peers", "", "comma-separated cluster member addresses (enables PULLC/QWINC fan-in)")
	nodeID := flag.String("node-id", "", "this node's own entry in -peers (defaults to -addr)")
	peerTimeout := flag.Duration("peer-timeout", server.DefaultPeerTimeout, "per-peer read timeout during cluster fan-in")
	peerRetries := flag.Int("peer-retries", 1, "per-peer re-dials after a failed fan-in read")
	grace := flag.Duration("grace", 5*time.Second, "in-flight connection grace period on shutdown")
	flag.Parse()

	if *kinds {
		for _, ent := range registry.Entries() {
			fmt.Printf("%-12s tag %-2d merges %s\n", ent.Name(), ent.Kind(), strings.Join(ent.Variants(), ","))
		}
		return
	}

	s := server.New()
	if *front != 0 {
		s.SetIngestFront(*front, *frontTick)
	}
	if *win {
		if err := s.SetWindow(window.Ladder{Fan: *winFan, Levels: *winLevels}, *winTick); err != nil {
			log.Fatalf("summaryd: -window-fan / -window-levels: %v", err)
		}
	}
	if *peers != "" {
		self := *nodeID
		if self == "" {
			self = *addr
		}
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		if err := s.SetPeers(self, list, *peerTimeout, *peerRetries); err != nil {
			// Serving anyway would answer PULLC/QWINC without this
			// node's own share.
			log.Fatalf("summaryd: -node-id (default: -addr) must be one of the -peers entries: %v", err)
		}
	}
	bound, err := s.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("summaryd listening on %s, serving %d kinds: %s\n",
		bound, len(registry.Names()), strings.Join(registry.Names(), " "))
	if peerList := s.Peers(); len(peerList) > 0 {
		fmt.Printf("summaryd cluster mode: %d peers (%s)\n", len(peerList), strings.Join(peerList, " "))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		fmt.Println("shutting down: draining ingest lanes and sealing live epoch")
		s.Shutdown(*grace)
		close(drained)
	}()

	if err := s.Serve(); err != nil {
		log.Fatal(err)
	}
	// Serve returns as soon as Shutdown closes the listener; the drain
	// and the grace period are still running.
	<-drained
}
