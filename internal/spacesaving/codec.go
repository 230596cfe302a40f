package spacesaving

import (
	"repro/internal/codec"
	"repro/internal/core"
)

// MarshalBinary encodes the summary in the library's framed wire
// format. It implements encoding.BinaryMarshaler. The payload is
// built in a pooled, pre-sized buffer.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	states := s.States()
	// Worst-case uvarint sizing: header (k, n, under, len) plus three
	// uvarints per counter state.
	w.Grow(4*10 + len(states)*3*10)
	w.Int(s.k)
	w.Uint64(s.n)
	w.Uint64(s.under)
	w.Int(len(states))
	for _, st := range states {
		w.Uint64(uint64(st.Item))
		w.Uint64(st.Count)
		w.Uint64(st.Eps)
	}
	return codec.EncodeFrame(codec.KindSpaceSaving, w.Bytes()), nil
}

// UnmarshalBinary decodes a summary previously encoded with
// MarshalBinary, replacing the receiver's contents. It implements
// encoding.BinaryUnmarshaler. The counter states are staged in a
// buffer the receiver keeps and the stream-summary structure is rebuilt
// in the arrays it already has (see load), so a reused receiver — any
// k, any contents; the zero value too — allocates nothing. A rejected
// frame leaves the receiver untouched, or empty when the rejection is
// a repeated item.
func (s *Summary) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindSpaceSaving, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	k := r.Int()
	n := r.Uint64()
	under := r.Uint64()
	m := r.ArrayLen(3)
	states := codec.Resize(s.stage, m)[:0]
	for i := 0; i < m; i++ {
		states = append(states, CounterState{
			Item:  core.Item(r.Uint64()),
			Count: r.Uint64(),
			Eps:   r.Uint64(),
		})
	}
	s.stage = states[:0]
	if err := r.Finish(); err != nil {
		return err
	}
	return s.load(k, n, under, states)
}
