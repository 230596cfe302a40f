// Package lockflow_a is the lockflow fixture: blocking and
// allocation-heavy operations inside critical sections, next to the
// restructured idioms the merge plane uses.
package lockflow_a

import (
	"bufio"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
)

// slot mimics a merge-plane slot: a mutex guarding a summary.
type slot struct {
	mu      sync.Mutex
	summary *codec.Buffer
	pushes  uint64
	ch      chan []byte
}

// --- violations ---

// decodeUnderLock deserializes inside the critical section — the
// merge plane decodes off-lock for a reason.
func decodeUnderLock(sl *slot, data []byte) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	_, err := codec.DecodeFrame(codec.KindGK, data) // want `decode \(DecodeFrame\) while holding sl.mu`
	return err
}

// ioUnderLock writes to the client while holding the slot: a slow
// reader stalls every pusher.
func ioUnderLock(sl *slot, w *bufio.Writer) {
	sl.mu.Lock()
	fmt.Fprintf(w, "OK %d\n", sl.pushes) // want `I/O \(fmt.Fprintf\) while holding sl.mu`
	fmt.Fprint(w, sl.pushes)             // want `I/O \(fmt.Fprint\) while holding sl.mu`
	sl.mu.Unlock()
}

// sendUnderLock blocks on a channel inside the critical section.
func sendUnderLock(sl *slot, data []byte) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	sl.ch <- data // want `channel send while holding sl.mu`
}

// poolGetUnderLock acquires scratch under the lock: a miss allocates
// while every other pusher waits.
func poolGetUnderLock(sl *slot) {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	w := codec.GetBuffer() // want `pool Get \(a miss allocates\) while holding sl.mu`
	defer codec.PutBuffer(w)
	w.Uint64(sl.pushes)
}

// sleepUnderLock parks with the lock held.
func sleepUnderLock(sl *slot) {
	sl.mu.Lock()
	time.Sleep(time.Millisecond) // want `sleep while holding sl.mu`
	sl.mu.Unlock()
}

// helperDecode hides the decode one call away; the summary table
// carries the fact to the locked caller.
func helperDecode(data []byte) error {
	_, err := codec.DecodeFrame(codec.KindGK, data)
	return err
}

func decodeViaHelper(sl *slot, data []byte) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return helperDecode(data) // want `decode \(via helperDecode\) while holding sl.mu`
}

// --- clean idioms ---

// cleanDecodeOffLock is the merge-plane shape: decode first, lock
// only for the state swap.
func cleanDecodeOffLock(sl *slot, data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindGK, data)
	if err != nil {
		return err
	}
	w := codec.GetBuffer()
	w.Uint64(uint64(len(payload)))
	sl.mu.Lock()
	old := sl.summary
	sl.summary = w
	sl.pushes++
	sl.mu.Unlock()
	if old != nil {
		codec.PutBuffer(old)
	}
	return nil
}

// cleanFormatUnderWriteAfter is the cmdStat shape: format the row
// under the lock, write it after.
func cleanFormatUnderWriteAfter(sl *slot, w *bufio.Writer) {
	sl.mu.Lock()
	line := fmt.Sprintf("OK %d\n", sl.pushes)
	sl.mu.Unlock()
	w.WriteString(line)
}

// cleanSendAfterUnlock stages the payload under the lock and blocks
// only once the lock is gone.
func cleanSendAfterUnlock(sl *slot, data []byte) {
	sl.mu.Lock()
	sl.pushes++
	sl.mu.Unlock()
	sl.ch <- data
}

// mergeable mimics a summary: Merge is pure in-memory work.
type mergeable struct{ n uint64 }

func (m *mergeable) Merge(src *mergeable) { m.n += src.n }

// plane mimics the window roll-up plane: a mutex guarding the live
// summary of the current epoch.
type plane struct {
	mu  sync.Mutex
	cur *mergeable
}

// cleanMergeUnderLock is the window-plane Absorb / ingest-front flush
// shape, and it is deliberately legal: a merge is bounded in-memory
// work (no decode, no I/O, no blocking), and running it under the
// plane lock is what keeps a concurrent Advance from sealing an epoch
// between the liveness check and the merge. Decoding the operand
// still belongs outside the lock (see decodeUnderLock above).
func cleanMergeUnderLock(p *plane, src *mergeable) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cur == nil {
		p.cur = &mergeable{}
	}
	p.cur.Merge(src)
}

// rollUpLocked is the window-plane roll-up shape: a decode that is
// argued to belong under the lock (the block must be stored before its
// seal is visible). The annotation clears the body and stops the taint
// here, so the locked caller below is clean for this call — and only
// for this call.
//
//sketch:lockflow-ok
func rollUpLocked(data []byte) error {
	_, err := codec.DecodeFrame(codec.KindGK, data)
	return err
}

// cleanAnnotatedCallee holds the lock across the annotated helper (no
// report) and across an unannotated one that reaches it through a
// plain wrapper (no report either: the taint stopped at the
// annotation). Its own body stays checked: the direct decode is still
// a violation.
func cleanAnnotatedCallee(sl *slot, data []byte) error {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if err := rollUpLocked(data); err != nil {
		return err
	}
	if err := viaAnnotated(data); err != nil {
		return err
	}
	_, err := codec.DecodeFrame(codec.KindGK, data) // want `decode \(DecodeFrame\) while holding sl.mu`
	return err
}

func viaAnnotated(data []byte) error { return rollUpLocked(data) }
