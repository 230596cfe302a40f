package main

import (
	"bytes"
	"context"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/registry"
	_ "repro/internal/registry/all"
	"repro/internal/server"
)

// rawSummary adapts pre-encoded frame bytes to the client marshaler
// interface, as the in-process catalog sweep does.
type rawSummary []byte

func (r rawSummary) MarshalBinary() ([]byte, error) { return r, nil }

// buildSummaryd compiles the daemon once into a temp dir.
func buildSummaryd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "summaryd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building summaryd: %v\n%s", err, out)
	}
	return bin
}

// reservePorts picks n distinct loopback addresses by binding and
// releasing ephemeral ports. A tiny window exists where another
// process could claim one, which is acceptable in a test.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// startDaemon launches one summaryd process in cluster mode and
// registers a kill-on-cleanup.
func startDaemon(t *testing.T, bin, addr string, peers []string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", addr,
		"-node-id", addr,
		"-peers", strings.Join(peers, ","),
		"-peer-timeout", "500ms",
		"-peer-retries", "0",
		"-grace", "2s",
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return cmd
}

// waitReady dials until the daemon answers or the deadline passes.
func waitReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := server.Dial(addr)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("summaryd at %s never came up", addr)
}

// TestClusterProcesses is the multi-process acceptance test: three
// summaryd processes on loopback form a coordinator-less cluster, a
// sharded stream of every registered family is pushed across them,
// and a cluster-wide PULLC — asked of every node — answers
// byte-identically everywhere and with exactly the single-node fold's
// total weight. Then one peer is killed and the fan-in must come back
// quickly with a partial-result error naming it, and a survivor must
// shut down cleanly on SIGTERM.
func TestClusterProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	bin := buildSummaryd(t)
	addrs := reservePorts(t, 3)
	procs := make([]*exec.Cmd, len(addrs))
	for i, a := range addrs {
		procs[i] = startDaemon(t, bin, a, addrs)
	}
	for _, a := range addrs {
		waitReady(t, a)
	}

	conns := make([]*server.Client, len(addrs))
	for i, a := range addrs {
		c, err := server.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}

	// Shard six frames of every family across the three processes and
	// record the expected total weight.
	wantN := map[string]uint64{}
	for _, ent := range registry.Entries() {
		slot := "mp-" + ent.Name()
		for i, n := range []int{80, 21, 300, 5, 144, 62} {
			ex := ent.Example(n)
			wantN[ent.Name()] += ent.N(ex)
			f, err := ent.Encode(ex)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conns[i%3].Push(slot, ent.Name(), rawSummary(f)); err != nil {
				t.Fatalf("%s shard push: %v", ent.Name(), err)
			}
		}
	}

	// Every node must serve the identical cluster-wide answer for
	// every family.
	for _, ent := range registry.Entries() {
		slot := "mp-" + ent.Name()
		var first []byte
		for i, c := range conns {
			kind, frame, err := c.PullClusterFrame(slot)
			if err != nil {
				t.Fatalf("%s PULLC via node %d: %v", ent.Name(), i, err)
			}
			if kind != ent.Name() {
				t.Fatalf("%s PULLC kind = %q", ent.Name(), kind)
			}
			if i == 0 {
				first = frame
				dec, err := ent.Decode(frame)
				if err != nil {
					t.Fatal(err)
				}
				if gn := ent.N(dec); gn != wantN[ent.Name()] {
					t.Fatalf("%s cluster N = %d, want %d", ent.Name(), gn, wantN[ent.Name()])
				}
			} else if !bytes.Equal(frame, first) {
				t.Fatalf("%s: node %d's cluster answer differs from node 0's", ent.Name(), i)
			}
		}
	}

	// Kill node 2: fan-in through a survivor must fail fast with a
	// partial-result error naming the dead peer, and node-local reads
	// must keep working.
	procs[2].Process.Kill()
	procs[2].Wait()
	ent := registry.Entries()[0]
	start := time.Now()
	_, _, err := conns[0].PullClusterFrame("mp-" + ent.Name())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("fan-in over a killed peer succeeded")
	}
	if !strings.Contains(err.Error(), "partial result") || !strings.Contains(err.Error(), addrs[2]) {
		t.Fatalf("partial-result error does not name the dead peer: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("fan-in over a killed peer took %v", elapsed)
	}
	if _, _, err := conns[0].PullFrame("mp-" + ent.Name()); err != nil {
		t.Fatalf("node-local PULL after peer death: %v", err)
	}

	// SIGTERM a survivor: graceful exit, status 0.
	if err := procs[1].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitDone := make(chan error, 1)
	go func() { waitDone <- procs[1].Wait() }()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("SIGTERM exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("summaryd did not exit on SIGTERM")
	}

	// The remaining node still answers (as a degraded cluster member,
	// its own state is intact).
	if _, _, err := conns[0].PullFrame("mp-" + ent.Name()); err != nil {
		t.Fatalf("last survivor's local PULL: %v", err)
	}
}

// refusal runs the daemon with a configuration it must refuse and
// returns what it printed before exiting non-zero.
func refusal(t *testing.T, bin string, args []string) []byte {
	t.Helper()
	// A daemon that starts anyway serves until killed.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, args...).CombinedOutput()
	if ctx.Err() == context.DeadlineExceeded {
		t.Fatalf("summaryd %v started serving:\n%s", args, out)
	}
	if err == nil {
		t.Fatalf("summaryd %v exited 0:\n%s", args, out)
	}
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("summaryd %v: %v", args, err)
	}
	return out
}

// TestRejectsNodeIDOutsidePeers: a daemon whose own address is not an
// entry of -peers would serve cluster-wide answers missing its own
// share, so it must refuse to start, naming the flags — both when
// -node-id is wrong and when it is defaulted from an -addr that the
// peer list spells differently.
func TestRejectsNodeIDOutsidePeers(t *testing.T) {
	bin := buildSummaryd(t)
	peers := "127.0.0.1:7071,127.0.0.1:7072"
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-node-id", "127.0.0.1:7079", "-peers", peers},
		{"-addr", "localhost:0", "-peers", peers},
	} {
		out := refusal(t, bin, args)
		if !bytes.Contains(out, []byte("-node-id")) || !bytes.Contains(out, []byte("-peers")) {
			t.Fatalf("summaryd %v: refusal does not name the flags:\n%s", args, out)
		}
	}
}

// TestRejectsInvalidLadder: a windowed daemon whose ladder no plane can
// be built on would answer every QWIN "slot is empty" — which a cluster
// fan-in counts as no data — so it must refuse to start.
func TestRejectsInvalidLadder(t *testing.T) {
	bin := buildSummaryd(t)
	for _, args := range [][]string{
		{"-addr", "127.0.0.1:0", "-window", "-window-levels", "0"},
		{"-addr", "127.0.0.1:0", "-window", "-window-fan", "1"},
	} {
		out := refusal(t, bin, args)
		if !bytes.Contains(out, []byte("-window-")) || !bytes.Contains(out, []byte("ladder")) {
			t.Fatalf("summaryd %v: refusal does not name the ladder flags:\n%s", args, out)
		}
	}
}
