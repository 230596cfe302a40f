package server

import (
	"bufio"
	"fmt"

	"repro/internal/registry"
)

// cmdWrite handles PUSH and PUSHB — PUSH is PUSHB of one. The frames are
// read one after another into a single pooled buffer and decoded into
// pooled scratch summaries with no lock held; the node then absorbs
// them into the slot under one acquisition of its lock (IngestBatch). Every frame
// the command line announced is consumed whatever a command-layer error
// (unknown kind, decode failure) says about the frames before it, so the
// stream stays in sync and the connection usable. It returns false when
// that is no longer possible and the connection must drop: a line of the
// wrong arity, an unparseable count or a frame-layer error leaves no way
// to know where the next command starts.
func (s *Server) cmdWrite(verb string, fields [][]byte, r *bufio.Reader, w *bufio.Writer) bool {
	count := 1
	if verb == "PUSH" {
		if len(fields) != 3 {
			// The client sends its length line and frame next; their bytes
			// must not be parsed as commands.
			fmt.Fprintf(w, "ERR usage: PUSH <slot> <kind>\n")
			return false
		}
	} else {
		if len(fields) != 4 {
			fmt.Fprintf(w, "ERR usage: PUSHB <slot> <kind> <count>\n")
			return false
		}
		var err error
		if count, err = atoi(fields[3]); err != nil || count < 1 || count > MaxBatch {
			fmt.Fprintf(w, "ERR bad batch count %q (want 1..%d)\n", fields[3], MaxBatch)
			return false
		}
	}
	// The frames are read over the line's bytes: the kind is resolved
	// first and the slot name kept in a buffer of the handler's own.
	var nameBuf [64]byte
	name := append(nameBuf[:0], fields[1]...)
	ent, known := registry.ByName(string(fields[2]))
	var cmdErr error
	if !known {
		cmdErr = fmt.Errorf("unknown kind %q", fields[2])
	}
	var one [1]any // a single frame needs no slice of its own
	decoded := one[:0]
	if count > 1 {
		decoded = make([]any, 0, count)
	}
	f := getFrame()
	for i := 0; i < count; i++ {
		frame, err := readLengthPrefixed(r, f)
		if err != nil {
			putFrame(f)
			recycle(ent, decoded)
			fmt.Fprintf(w, "ERR reading frame %d/%d: %v\n", i+1, count, err)
			return false
		}
		if cmdErr != nil {
			continue
		}
		decoded = decoded[:i+1]
		decoded[i] = ent.GetScratch()
		if err := ent.DecodeInto(decoded[i], frame); err != nil {
			cmdErr = fmt.Errorf("decoding frame %d/%d: %v", i+1, count, err)
		}
	}
	putFrame(f)
	if cmdErr != nil {
		recycle(ent, decoded) // empty when the kind is unknown
	} else if n, err := s.ingestBatch(name, ent, decoded); err != nil {
		cmdErr = err
	} else {
		writeOK(w, n)
		return true
	}
	fmt.Fprintf(w, "ERR %v\n", cmdErr)
	return true
}
