// Package wireshape_a is the wireshape fixture: codec pairs with
// every asymmetry class the analyzer proves absent — width drift,
// step-count drift, re-keyed and unvalidated loop bounds, trailing
// length fields, unkeyed conditionals, missing Finish, unpaired
// directions, a run read of the wrong element kind or without a
// validated count, a chunked run whose loop skips records — next to
// clean codecs using every supported idiom (run reads of single
// elements and of fixed-width records, whole or in chunks, among them).
package wireshape_a

import (
	"errors"

	"repro/internal/codec"
)

// --- clean: every supported idiom, zero diagnostics ---

type clean struct {
	flag  bool
	k     int
	xs    []uint64
	cells []uint64
	extra float64
}

func (s *clean) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Bool(false) // discriminator
	w.Int(s.k)
	w.Int(len(s.xs))
	for _, v := range s.xs {
		w.Uint64(v)
	}
	for _, v := range s.cells { // column sized as k at decode
		w.Uint64(v)
	}
	w.Bool(s.flag)
	if s.flag {
		w.Float64(s.extra)
	}
	return codec.EncodeFrame(codec.KindMisraGries, w.Bytes()), nil
}

func (s *clean) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindMisraGries, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	if r.Bool() {
		return errors.New("wrong discriminator")
	}
	k := r.Int()
	if k < 0 || k > 1<<20 {
		return errors.New("bad k")
	}
	m := r.ArrayLen(1)
	xs := make([]uint64, 0, m)
	for i := 0; i < m; i++ {
		xs = append(xs, r.Uint64())
	}
	cells := make([]uint64, k)
	for i := range cells {
		cells[i] = r.Uint64()
	}
	var extra float64
	flag := r.Bool()
	if flag {
		extra = r.Float64()
	}
	if err := r.Finish(); err != nil {
		return err
	}
	*s = clean{flag: flag, k: k, xs: xs, cells: cells, extra: extra}
	return nil
}

// --- clean runs: every run primitive against the encode loop it
// replaces, each destination sized a supported way — codec.Resize of a
// validated count, a re-slice to a range-checked header field, a
// column of the receiver reshaped from header fields — zero
// diagnostics ---

type runs struct {
	k     int
	xs    []uint64
	ds    []int64
	regs  []uint8
	vs    []float64
	inner []uint8
	pts   [][2]float64
	xy    []float64
	ps    [][2]uint64
}

func (s *runs) reshape(k int) {
	s.k = k
	s.regs = codec.Resize(s.regs, 1<<k)
	s.ds = codec.Resize(s.ds, k)
}

func (s *runs) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(s.k)
	w.Int(len(s.xs))
	for _, v := range s.xs {
		w.Uint64(v)
	}
	for _, d := range s.ds {
		w.Uint64(uint64(d))
	}
	for _, r := range s.regs {
		w.Uint64(uint64(r))
	}
	w.Int(len(s.vs))
	for _, v := range s.vs {
		w.Float64(v)
	}
	w.Int(len(s.inner))
	for _, b := range s.inner {
		w.Uint64(uint64(b))
	}
	w.Int(len(s.pts))
	for _, p := range s.pts {
		w.Float64(p[0])
		w.Float64(p[1])
	}
	w.Int(len(s.ps))
	for _, p := range s.ps {
		w.Uint64(p[0])
		w.Uint64(p[1])
	}
	return codec.EncodeFrame(codec.KindHLL, w.Bytes()), nil
}

func (s *runs) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindHLL, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	k := r.Int()
	if k < 1 || k > 16 {
		return errors.New("bad k")
	}
	m := r.ArrayLen(1)
	s.xs = codec.Resize(s.xs, m)
	r.Uint64s(s.xs)
	s.reshape(k)
	r.Int64s(s.ds[:k])
	r.Uint8s(s.regs, 64)
	nv := r.ArrayLen(8)
	vs := codec.Resize(s.vs, nv)
	r.Float64s(vs)
	s.vs = vs
	il := r.ArrayLen(1)
	s.inner = codec.Resize(s.inner, il)
	r.Uint8s(s.inner, 255)
	// A run into x[:2*n] is n records of two elements each.
	np := r.ArrayLen(16)
	s.xy = codec.Resize(s.xy, 2*np)
	r.Float64s(s.xy[:2*np])
	// The same run read in chunks through a buffer: a loop whose counter
	// advances by the records each chunk reads.
	nps := r.ArrayLen(2)
	s.ps = codec.Resize(s.ps, nps)
	var buf [8]uint64
	for j, c := 0, 0; j < nps; j += c {
		c = min(nps-j, len(buf)/2)
		r.Uint64s(buf[:2*c])
		for i := range c {
			s.ps[j+i] = [2]uint64{buf[2*i], buf[2*i+1]}
		}
	}
	if err := r.Finish(); err != nil {
		return err
	}
	return redecode(data)
}

// redecode reads wire bytes, but of a frame of its own: it is handed
// no Reader, so it is not a helper for its caller's payload and adds
// no steps there.
func redecode(data []byte) error {
	var fresh clean
	return fresh.UnmarshalBinary(data)
}

// --- run of the wrong element kind: floats written, uvarints read ---

type runkind struct {
	vs []float64
	us []uint64
}

func (s *runkind) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(len(s.vs))
	for _, v := range s.vs {
		w.Float64(v)
	}
	return codec.EncodeFrame(codec.KindKMV, w.Bytes()), nil
}

func (s *runkind) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindKMV, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	n := r.ArrayLen(1)
	s.us = codec.Resize(s.us, n)
	r.Uint64s(s.us) // want `field 1.0 \(v\): encode writes f64 but decode reads uvarint`
	return r.Finish()
}

// --- run without its count: the length travels but is never read, and
// a run sized from an unvalidated count ---

type runcount struct {
	xs []uint64
}

func (s *runcount) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(len(s.xs))
	for _, v := range s.xs { // want `encode writes 2 wire step\(s\) at this level but decode reads 1`
		w.Uint64(v)
	}
	return codec.EncodeFrame(codec.KindQDigest, w.Bytes()), nil
}

func (s *runcount) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindQDigest, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	r.Uint64s(s.xs) // want `step 0: encode is uvarint len\(xs\) but decode is repeat over col:xs`
	return r.Finish()
}

type rununguarded struct {
	xs []uint64
}

func (s *rununguarded) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(len(s.xs))
	for _, v := range s.xs {
		w.Uint64(v)
	}
	return codec.EncodeFrame(codec.KindRandQuant, w.Bytes()), nil
}

func (s *rununguarded) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRandQuant, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	m := r.Int()
	s.xs = codec.Resize(s.xs, m)
	r.Uint64s(s.xs) // want `repeat 1: decode loop bound field:0 is never validated`
	return r.Finish()
}

// --- chunked run whose loop does not count what it reads: the counter
// moves by one record per chunk of up to four ---

type runchunk struct {
	ps [][2]uint64
}

func (s *runchunk) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(len(s.ps))
	for _, p := range s.ps {
		w.Uint64(p[0])
		w.Uint64(p[1]) // want `encode writes 2 wire step\(s\) at this level but decode reads 1`
	}
	return codec.EncodeFrame(codec.KindBottomK, w.Bytes()), nil
}

func (s *runchunk) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindBottomK, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	n := r.ArrayLen(2)
	var buf [8]uint64
	for j, c := 0, 0; j < n; j++ {
		c = min(n-j, len(buf)/2)
		r.Uint64s(buf[:2*c]) // want `step 1.0: encode is uvarint p\[0\] but decode is repeat over expr:c`
	}
	return r.Finish()
}

// --- width drift: encode writes a varint, decode reads 8 bytes ---

type widths struct {
	a uint64
	b float64
}

func (s *widths) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Uint64(s.a)
	w.Float64(s.b)
	return codec.EncodeFrame(codec.KindSpaceSaving, w.Bytes()), nil
}

func (s *widths) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindSpaceSaving, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	s.a = uint64(r.Float64()) // want `field 0 \(a\): encode writes uvarint but decode reads f64`
	s.b = float64(r.Uint64()) // want `field 1 \(b\): encode writes f64 but decode reads uvarint`
	return r.Finish()
}

// --- step-count drift: decode reads a field encode never wrote ---

type counts struct {
	a, b uint64
}

func (s *counts) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Uint64(s.a)
	w.Uint64(s.b)
	return codec.EncodeFrame(codec.KindGK, w.Bytes()), nil
}

func (s *counts) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindGK, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	s.a = r.Uint64()
	s.b = r.Uint64()
	_ = r.Uint64() // want `encode writes 2 wire step\(s\) at this level but decode reads 3`
	return r.Finish()
}

// --- unvalidated loop bound: plain Int count drives allocation ---

type unguarded struct {
	xs []uint64
}

func (s *unguarded) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(len(s.xs))
	for _, v := range s.xs {
		w.Uint64(v)
	}
	return codec.EncodeFrame(codec.KindCountMin, w.Bytes()), nil
}

func (s *unguarded) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindCountMin, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	m := r.Int()
	s.xs = nil
	for i := 0; i < m; i++ { // want `repeat 1: decode loop bound field:0 is never validated`
		s.xs = append(s.xs, r.Uint64())
	}
	return r.Finish()
}

// --- re-keyed loops: the two counts swap on the decode side ---

type rekeyed struct {
	a, b []uint64
}

func (s *rekeyed) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Int(len(s.a))
	w.Int(len(s.b))
	for _, v := range s.a {
		w.Uint64(v)
	}
	for _, v := range s.b {
		w.Uint64(v)
	}
	return codec.EncodeFrame(codec.KindCountSketch, w.Bytes()), nil
}

func (s *rekeyed) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindCountSketch, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	na := r.ArrayLen(1)
	nb := r.ArrayLen(1)
	s.a, s.b = nil, nil
	for i := 0; i < nb; i++ { // want `repeat 2 re-keyed: encode loops over field:0 but decode loops over field:1`
		s.a = append(s.a, r.Uint64())
	}
	for i := 0; i < na; i++ { // want `repeat 3 re-keyed: encode loops over field:1 but decode loops over field:0`
		s.b = append(s.b, r.Uint64())
	}
	return r.Finish()
}

// --- trailing length: the count is written after the elements ---

type trailing struct {
	xs []uint64
}

func (s *trailing) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	for _, v := range s.xs { // want `repeat 0: length field len\(xs\) is written after the data it bounds`
		w.Uint64(v)
	}
	w.Int(len(s.xs))
	return codec.EncodeFrame(codec.KindBottomK, w.Bytes()), nil
}

func (s *trailing) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindBottomK, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	m := r.ArrayLen(1) // want `step 0: encode is repeat over col:xs but decode is uvarint`
	s.xs = make([]uint64, 0, m)
	for i := 0; i < m; i++ { // want `step 1: encode is uvarint len\(xs\) but decode is repeat over field:0`
		s.xs = append(s.xs, r.Uint64())
	}
	return r.Finish()
}

// --- unkeyed conditional: presence depends on state, not the wire ---

type unkeyed struct {
	flag bool
	x    uint64
}

func (s *unkeyed) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	if s.flag { // want `conditional wire fields are not keyed to a transferred flag byte` `encode writes 1 wire step\(s\) at this level but decode reads 0`
		w.Uint64(s.x)
	}
	return codec.EncodeFrame(codec.KindRangeCount, w.Bytes()), nil
}

func (s *unkeyed) UnmarshalBinary(data []byte) error {
	payload, err := codec.DecodeFrame(codec.KindRangeCount, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	return r.Finish()
}

// --- missing Finish: trailing bytes pass silently ---

type nofinish struct {
	x uint64
}

func (s *nofinish) MarshalBinary() ([]byte, error) {
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Uint64(s.x)
	return codec.EncodeFrame(codec.KindKernel, w.Bytes()), nil
}

func (s *nofinish) UnmarshalBinary(data []byte) error { // want `nofinish decoder for KindKernel never calls Reader.Finish`
	payload, err := codec.DecodeFrame(codec.KindKernel, data)
	if err != nil {
		return err
	}
	r := codec.NewReader(payload)
	s.x = r.Uint64()
	return r.Err()
}

// --- unpaired: an encoder whose kind nothing decodes ---

type orphanenc struct {
	x uint64
}

func (s *orphanenc) MarshalBinary() ([]byte, error) { // want `orphanenc.MarshalBinary encodes KindTopK but nothing decodes it`
	w := codec.GetBuffer()
	defer codec.PutBuffer(w)
	w.Uint64(s.x)
	return codec.EncodeFrame(codec.KindTopK, w.Bytes()), nil
}
