// Package checkpoint defines the versioned whole-platform state
// container: a deeper cousin of the trace v2 container that freezes a
// quiesced simulation mid-flight so one warm-up can fan out into many
// experiment cells, and so SMARTS-style interval sampling can skip
// simulated time it has already paid for once.
//
// The wire format follows the trace container's rules exactly: a fixed
// magic, an explicit schema version that readers refuse rather than
// guess around, and every count length-prefixed and bounds-checked
// before any allocation sized from it. Sections are named opaque
// payloads, one per platform layer, so `hamstrace info` can report
// per-layer sizes without understanding their contents and a future
// schema can add sections without renumbering anything.
//
// Versioning policy (mirrors trace v2): SchemaVersion bumps only on an
// incompatible layout change; readers accept exactly the versions they
// understand and fail with ErrBadHeader otherwise. Adding a new named
// section is not a version bump — decoders ignore sections they do not
// ask for; removing or re-shaping one is.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// SchemaVersion is the container layout version this package writes.
const SchemaVersion = 2

// Container limits. Every wire count is validated against these (or
// against the bytes actually remaining) before an allocation is sized
// from it, so a corrupt or hostile image cannot trigger an OOM.
const (
	MaxSections     = 64
	MaxSectionName  = 64
	MaxPlatformName = 128
	MaxSectionBytes = 1 << 31 // 2 GiB; payloads stream in 1 MiB steps
)

// Magic identifies a checkpoint container ("HAMC"; traces use "HAMS").
var Magic = [4]byte{'H', 'A', 'M', 'C'}

// Typed failures. Decode errors wrap ErrBadHeader (not a checkpoint /
// unknown version) or ErrCorrupt (truncated or inconsistent payload);
// Save refuses a non-quiesced platform with ErrNotQuiesced and a
// platform without checkpoint support with ErrUnsupported; Restore
// refuses an image built for different hardware with ErrMismatch.
var (
	ErrBadHeader   = errors.New("checkpoint: bad header")
	ErrCorrupt     = errors.New("checkpoint: corrupt container")
	ErrNotQuiesced = errors.New("checkpoint: platform not quiesced")
	ErrUnsupported = errors.New("checkpoint: platform does not support checkpointing")
	ErrMismatch    = errors.New("checkpoint: image does not match platform")
)

// IsMagic reports whether b begins with the checkpoint magic (used by
// CLI sniffing to distinguish checkpoints from traces).
func IsMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == Magic[0] && b[1] == Magic[1] && b[2] == Magic[2] && b[3] == Magic[3]
}

// Checkpointer is the per-layer contract: serialize your mutable
// simulation state into an encoder, or overlay it back from a decoder
// onto an already-constructed instance. RestoreState must validate
// every geometry-dependent count against the receiver (never resize
// structure from the wire) and must leave no state half-applied only
// when it can detect the mismatch before mutating.
type Checkpointer interface {
	SaveState(*Enc)
	RestoreState(*Dec) error
}

// Section is one named opaque payload.
type Section struct {
	Name string
	Data []byte
}

// Image is a decoded checkpoint: the header fields plus per-layer
// sections in file order.
type Image struct {
	Version  int
	Platform string // platform name the image was taken on
	SimTime  int64  // engine clock at the quiesce boundary, ns
	Warmup   int64  // per-thread steps consumed before the boundary
	Sections []Section
}

// Add appends a section holding enc's bytes.
func (img *Image) Add(name string, enc *Enc) {
	img.Sections = append(img.Sections, Section{Name: name, Data: enc.Bytes()})
}

// Section returns a decoder over the named section, or an ErrCorrupt-
// wrapped error naming the missing section.
func (img *Image) Section(name string) (*Dec, error) {
	for i := range img.Sections {
		if img.Sections[i].Name == name {
			return NewDec(img.Sections[i].Data), nil
		}
	}
	return nil, fmt.Errorf("%w: missing section %q", ErrCorrupt, name)
}

// Enc accumulates little-endian primitives. The zero value is ready.
type Enc struct {
	b []byte
}

// Bytes returns the accumulated buffer (not a copy).
func (e *Enc) Bytes() []byte { return e.b }

// Len returns the number of bytes accumulated so far.
func (e *Enc) Len() int { return len(e.b) }

// U64 appends v little-endian.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// U32 appends v little-endian.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// I64 appends v little-endian.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends v as IEEE-754 bits.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends v as one byte.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Count appends a non-negative element count.
func (e *Enc) Count(n int) { e.U64(uint64(n)) }

// Raw appends p verbatim (no length prefix; the reader must know the
// exact size from already-validated structure).
func (e *Enc) Raw(p []byte) { e.b = append(e.b, p...) }

// Blob appends p length-prefixed.
func (e *Enc) Blob(p []byte) { e.Count(len(p)); e.Raw(p) }

// zeroPage is what Enc.Page compares payloads against, a chunk at a
// time.
var zeroPage [4096]byte

// Page appends a page payload with the all-zero case run-compressed to
// a flag plus length. Simulated stores are dominated by zero-filled
// pages (cold fills, reads of never-written addresses), so this keeps
// image sections proportional to the data actually written rather
// than the footprint touched. Decode with Dec.Page.
func (e *Enc) Page(p []byte) {
	zero := true
	for rest := p; zero && len(rest) > 0; {
		n := min(len(rest), len(zeroPage))
		zero = bytes.Equal(rest[:n], zeroPage[:n])
		rest = rest[n:]
	}
	e.Bool(zero)
	if zero {
		e.Count(len(p))
		return
	}
	e.Blob(p)
}

// String appends s length-prefixed.
func (e *Enc) String(s string) { e.Count(len(s)); e.b = append(e.b, s...) }

// Dec reads little-endian primitives from an in-memory section with a
// sticky error: after the first failure every read returns zero values
// and Err reports ErrCorrupt. Because the payload is already in
// memory, every length is validated against the bytes actually
// remaining before an allocation is sized from it.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b)-d.off < n {
		d.fail("need %d bytes, %d remain", n, len(d.b)-d.off)
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U64 reads a little-endian uint64.
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// U32 reads a little-endian uint32.
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// I64 reads a little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads IEEE-754 bits.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Bool reads one byte; any nonzero value is true.
func (d *Dec) Bool() bool {
	p := d.take(1)
	return p != nil && p[0] != 0
}

// Count reads an element count and validates 0 <= n <= max. It fails
// the decoder (and returns 0) on violation, so callers can size
// allocations from the result without further checks.
func (d *Dec) Count(max int) int {
	v := d.U64()
	if d.err != nil {
		return 0
	}
	if v > uint64(max) {
		d.fail("count %d exceeds limit %d", v, max)
		return 0
	}
	return int(v)
}

// CountSized reads an element count for elements costing at least per
// wire bytes each, bounding it by the bytes actually remaining — the
// rule that makes it impossible to size an allocation from a count the
// payload cannot back.
func (d *Dec) CountSized(per int) int {
	if per <= 0 {
		per = 1
	}
	return d.Count((len(d.b) - d.off) / per)
}

// Raw returns the next n bytes without copying.
func (d *Dec) Raw(n int) []byte { return d.take(n) }

// ReadInto fills p from the stream.
func (d *Dec) ReadInto(p []byte) {
	src := d.take(len(p))
	if src != nil {
		copy(p, src)
	}
}

// Blob reads a length-prefixed byte slice (copied). The length is
// bounded by the bytes remaining, so no unvalidated allocation occurs.
func (d *Dec) Blob() []byte {
	n := d.Count(len(d.b) - d.off)
	p := d.take(n)
	if p == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, p)
	return out
}

// Page reads a payload written by Enc.Page into a fresh slice of at
// most max bytes. A zero-compressed page allocates its length directly
// (bounded by max, not by bytes on the wire — callers cap max at the
// geometry's page size so a hostile flag cannot size an allocation).
func (d *Dec) Page(max int) []byte {
	if d.Bool() {
		n := d.Count(max)
		if d.err != nil {
			return nil
		}
		return make([]byte, n)
	}
	p := d.Blob()
	if len(p) > max {
		d.fail("page of %d bytes exceeds %d", len(p), max)
		return nil
	}
	return p
}

// PageInto reads a payload written by Enc.Page into dst without
// allocating, returning the payload length. The length must equal
// len(dst) exactly; zero-compressed pages clear dst in place.
func (d *Dec) PageInto(dst []byte) int {
	if d.Bool() {
		n := d.Count(len(dst))
		if d.err != nil {
			return 0
		}
		if n != len(dst) {
			d.fail("page of %d bytes into %d", n, len(dst))
			return 0
		}
		for i := range dst {
			dst[i] = 0
		}
		return n
	}
	n := d.Count(len(dst))
	if d.err != nil {
		return 0
	}
	if n != len(dst) {
		d.fail("page of %d bytes into %d", n, len(dst))
		return 0
	}
	d.ReadInto(dst)
	return n
}

// String reads a length-prefixed string of at most max bytes.
func (d *Dec) String(max int) string {
	n := d.Count(max)
	p := d.take(n)
	if p == nil {
		return ""
	}
	return string(p)
}

// Finish fails unless the whole section was consumed (a layer that
// leaves trailing bytes decoded against the wrong layout).
func (d *Dec) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Encode writes img to w:
//
//	magic "HAMC" | u32 version | platform string | i64 simTime
//	| i64 warmup | u32 nSections | nSections × (name string
//	| u64 payloadLen | payload)
//
// Strings are u64-length-prefixed like every other count.
func Encode(w io.Writer, img *Image) error {
	if len(img.Sections) > MaxSections {
		return fmt.Errorf("%w: %d sections exceeds limit %d", ErrCorrupt, len(img.Sections), MaxSections)
	}
	var h Enc
	h.Raw(Magic[:])
	h.U32(uint32(img.Version))
	h.String(img.Platform)
	h.I64(img.SimTime)
	h.I64(img.Warmup)
	h.U32(uint32(len(img.Sections)))
	for _, s := range img.Sections {
		if len(s.Name) > MaxSectionName {
			return fmt.Errorf("%w: section name %q too long", ErrCorrupt, s.Name)
		}
		h.String(s.Name)
		h.U64(uint64(len(s.Data)))
		h.Raw(s.Data)
	}
	_, err := w.Write(h.Bytes())
	return err
}

// readChunked reads exactly n bytes, growing the buffer in 1 MiB steps
// so a lying length field costs at most one chunk before the short
// read surfaces as ErrCorrupt — the same incremental-allocation rule
// the trace decoder applies to access counts.
func readChunked(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	c0 := n
	if c0 > chunk {
		c0 = chunk
	}
	buf := make([]byte, 0, c0)
	for uint64(len(buf)) < n {
		c := n - uint64(len(buf))
		if c > chunk {
			c = chunk
		}
		old := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[old:]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload", ErrCorrupt)
		}
	}
	return buf, nil
}

// readHeaderString reads a u64-length-prefixed string bounded by max.
func readHeaderString(r io.Reader, max int) (string, error) {
	var lenBuf [8]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return "", fmt.Errorf("%w: truncated string length", ErrCorrupt)
	}
	n := binary.LittleEndian.Uint64(lenBuf[:])
	if n > uint64(max) {
		return "", fmt.Errorf("%w: string length %d exceeds limit %d", ErrCorrupt, n, max)
	}
	p, err := readChunked(r, n)
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// Decode reads a checkpoint container from r. It validates the magic,
// the schema version and every count before allocating from them;
// malformed input fails with an error wrapping ErrBadHeader or
// ErrCorrupt before any section payload is interpreted.
func Decode(r io.Reader) (*Image, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short read", ErrBadHeader)
	}
	if !IsMagic(hdr[:4]) {
		return nil, fmt.Errorf("%w: not a checkpoint container", ErrBadHeader)
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version != SchemaVersion {
		return nil, fmt.Errorf("%w: unsupported schema version %d (have %d)", ErrBadHeader, version, SchemaVersion)
	}
	img := &Image{Version: int(version)}
	var err error
	if img.Platform, err = readHeaderString(r, MaxPlatformName); err != nil {
		return nil, err
	}
	var fixed [20]byte // simTime, warmup, nSections
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	img.SimTime = int64(binary.LittleEndian.Uint64(fixed[0:]))
	img.Warmup = int64(binary.LittleEndian.Uint64(fixed[8:]))
	nsec := binary.LittleEndian.Uint32(fixed[16:])
	if nsec > MaxSections {
		return nil, fmt.Errorf("%w: %d sections exceeds limit %d", ErrCorrupt, nsec, MaxSections)
	}
	for i := uint32(0); i < nsec; i++ {
		name, err := readHeaderString(r, MaxSectionName)
		if err != nil {
			return nil, err
		}
		var lenBuf [8]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated section length", ErrCorrupt)
		}
		size := binary.LittleEndian.Uint64(lenBuf[:])
		if size > MaxSectionBytes {
			return nil, fmt.Errorf("%w: section %q length %d exceeds limit %d", ErrCorrupt, name, size, int64(MaxSectionBytes))
		}
		data, err := readChunked(r, size)
		if err != nil {
			return nil, err
		}
		img.Sections = append(img.Sections, Section{Name: name, Data: data})
	}
	return img, nil
}
