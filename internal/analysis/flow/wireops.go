package flow

import (
	"go/ast"
	"go/types"
)

// WireClass is the on-wire width class of one codec.Buffer write or
// codec.Reader read. It is the symbolic buffer-op summary the
// wireshape analyzer interprets: two sides of a codec agree exactly
// when their ordered WireClass sequences (and loop structure) agree.
type WireClass uint8

const (
	// WireUvarint is a variable-length unsigned varint (Buffer.Uint64,
	// Buffer.Int; Reader.Uint64, Reader.Int, Reader.ArrayLen).
	WireUvarint WireClass = iota + 1
	// WireByte is a single byte (Buffer.Bool, Reader.Bool).
	WireByte
	// WireF64 is 8 bytes of IEEE-754 little-endian (Float64 on both
	// sides).
	WireF64
	// WireBytes is a raw byte run of symbolic length (Reader.Borrow;
	// no Buffer counterpart exists today — encoders emit raw runs one
	// byte at a time through Uint64, which stays WireUvarint).
	WireBytes
)

func (c WireClass) String() string {
	switch c {
	case WireUvarint:
		return "uvarint"
	case WireByte:
		return "byte"
	case WireF64:
		return "f64"
	case WireBytes:
		return "bytes"
	}
	return "?"
}

// ReadOrigin classifies how a Reader read was obtained, which is what
// decides whether a loop bounded by the value counts as validated.
type ReadOrigin uint8

const (
	// OriginPlain is an unvalidated read (Uint64, Bool, Float64).
	OriginPlain ReadOrigin = iota
	// OriginInt is Reader.Int: bounded to MaxInt32 but not validated
	// against the remaining payload.
	OriginInt
	// OriginArrayLen is Reader.ArrayLen: an element count validated
	// against the remaining payload before any allocation.
	OriginArrayLen
)

// bufferWriteOps maps codec.Buffer payload-append methods to their
// wire class. Grow/Reset/Bytes/Len are buffer management, not wire
// operations, and are deliberately absent.
var bufferWriteOps = map[string]WireClass{
	"Uint64":  WireUvarint,
	"Int":     WireUvarint,
	"Bool":    WireByte,
	"Float64": WireF64,
}

// readerReadOps maps codec.Reader payload-consume methods to their
// wire class. Err/Remaining/Finish inspect state without consuming
// payload and are deliberately absent.
var readerReadOps = map[string]struct {
	class  WireClass
	origin ReadOrigin
}{
	"Uint64":   {WireUvarint, OriginPlain},
	"Int":      {WireUvarint, OriginInt},
	"ArrayLen": {WireUvarint, OriginArrayLen},
	"Bool":     {WireByte, OriginPlain},
	"Float64":  {WireF64, OriginPlain},
	"Borrow":   {WireBytes, OriginPlain},
}

// readerRunOps maps codec.Reader run reads — one call that consumes
// len(dst) elements into its first argument — to the wire class of one
// element. On the wire a run is what it replaces: a repeat of that
// element over the destination's length.
var readerRunOps = map[string]WireClass{
	"Uint64s":  WireUvarint,
	"Int64s":   WireUvarint,
	"Uint8s":   WireUvarint,
	"Float64s": WireF64,
}

// isCodecMethod reports whether the call is a method on the named
// codec type (Buffer or Reader), matching both the real codec package
// and fixture stand-ins named codec.
func (in *Info) isCodecMethod(call *ast.CallExpr, typeName string) bool {
	fn := in.Callee(call)
	return fn != nil && RecvTypeName(fn) == typeName && pathIs(RecvTypePkgPath(fn), "codec")
}

// BufferWriteOp classifies a call as a codec.Buffer payload write,
// returning its wire class. ok is false for anything else, including
// Buffer management calls (Grow, Reset, Bytes).
func (in *Info) BufferWriteOp(call *ast.CallExpr) (class WireClass, ok bool) {
	class, hit := bufferWriteOps[CalleeName(call)]
	if !hit || !in.isCodecMethod(call, "Buffer") {
		return 0, false
	}
	return class, true
}

// ReaderReadOp classifies a call as a codec.Reader payload read,
// returning its wire class and validation origin. ok is false for
// anything else, including non-consuming Reader calls (Err,
// Remaining, Finish).
func (in *Info) ReaderReadOp(call *ast.CallExpr) (class WireClass, origin ReadOrigin, ok bool) {
	op, hit := readerReadOps[CalleeName(call)]
	if !hit || !in.isCodecMethod(call, "Reader") {
		return 0, OriginPlain, false
	}
	return op.class, op.origin, true
}

// ReaderRunOp classifies a call as a codec.Reader run read, returning
// the wire class of one element; the destination slice is the call's
// first argument.
func (in *Info) ReaderRunOp(call *ast.CallExpr) (elem WireClass, ok bool) {
	elem, hit := readerRunOps[CalleeName(call)]
	if !hit || len(call.Args) == 0 || !in.isCodecMethod(call, "Reader") {
		return 0, false
	}
	return elem, true
}

// PassesCodec reports whether the call hands its callee a
// *codec.Buffer or *codec.Reader (typeName) among its arguments — what
// makes a same-package callee with wire facts a helper for the
// caller's payload, not a codec for some other frame.
func (in *Info) PassesCodec(call *ast.CallExpr, typeName string) bool {
	for _, a := range call.Args {
		p, ok := in.TypesInfo.TypeOf(a).(*types.Pointer)
		if !ok {
			continue
		}
		if n, ok := p.Elem().(*types.Named); ok && n.Obj().Name() == typeName &&
			n.Obj().Pkg() != nil && pathIs(n.Obj().Pkg().Path(), "codec") {
			return true
		}
	}
	return false
}

// IsCodecFunc reports whether the call is the named package-level
// function of the codec package (Resize is generic: the callee
// resolves to its origin).
func (in *Info) IsCodecFunc(call *ast.CallExpr, name string) bool {
	fn := in.Callee(call)
	return fn != nil && fn.Name() == name && RecvTypeName(fn) == "" && pathIs(pkgPathOf(fn), "codec")
}

// IsReaderCall reports whether the call is any method on codec.Reader
// with the given name (consuming or not).
func (in *Info) IsReaderCall(call *ast.CallExpr, name string) bool {
	return CalleeName(call) == name && in.isCodecMethod(call, "Reader")
}
