// Package trace records and replays memory-access streams in a compact
// binary container, so experiment inputs can be captured once and
// re-run bit-identically across platforms or library versions.
//
// Two container versions exist:
//
//   - v1: a single unlabeled stream of steps (legacy; decode only).
//   - v2: multi-thread streams with per-thread tenant labels, the
//     workload's warm (steady-state) regions, and a container name —
//     everything internal/replay needs to reproduce a live run
//     bit-for-bit or to compose the trace into a multi-tenant
//     scenario.
//
// Every count field decoded from a file is validated against a hard
// bound before it steers any allocation or loop; a corrupt or
// adversarial trace yields an error wrapping ErrCorrupt, never an
// unbounded allocation.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hams/internal/cpu"
	"hams/internal/mem"
)

// magic identifies the stream format; the version field gates decoding.
const (
	magic    = 0x48414D53 // "HAMS"
	Version1 = 1
	Version2 = 2
)

// Decoder bounds. A trace is attacker-controlled input (users replay
// files they did not record), so every count read from the wire is
// checked against these before use.
const (
	// MaxStepAccesses bounds one step's access count. The widest
	// generator step (a 4 KiB page copy plus ratio filler) is a few
	// hundred accesses; 1<<20 leaves three orders of magnitude slack.
	MaxStepAccesses = 1 << 20
	// MaxThreads bounds the v2 thread table.
	MaxThreads = 1 << 12
	// MaxLabel bounds one thread label's byte length.
	MaxLabel = 256
	// MaxWarmRegions bounds the v2 warm-region table.
	MaxWarmRegions = 1 << 16
	// maxName bounds the container name's byte length.
	maxName = 1 << 12
)

// ErrBadHeader marks a stream that is not a HAMS trace.
var ErrBadHeader = errors.New("trace: bad header")

// ErrCorrupt marks a structurally invalid trace: a count field beyond
// its bound, an out-of-range thread ID, or a truncated record.
var ErrCorrupt = errors.New("trace: corrupt stream")

// Region is an address range the recorded workload keeps hot; replay
// warms platform caches with it before driving the streams, standing
// in for the steady state a full-length live run reaches.
type Region struct {
	Base, Size uint64
}

// ---------------------------------------------------------------------
// Shared step codec: compute (8B), access count (4B), 13B per access.

func writeStep(w *bufio.Writer, s cpu.Step) error {
	if len(s.Acc) > MaxStepAccesses {
		return fmt.Errorf("trace: step has %d accesses, limit %d", len(s.Acc), MaxStepAccesses)
	}
	var b [12]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(s.Compute))
	binary.LittleEndian.PutUint32(b[8:], uint32(len(s.Acc)))
	if _, err := w.Write(b[:]); err != nil {
		return err
	}
	var ab [13]byte
	for _, a := range s.Acc {
		binary.LittleEndian.PutUint64(ab[0:], a.Addr)
		binary.LittleEndian.PutUint32(ab[8:], a.Size)
		ab[12] = byte(a.Op)
		if _, err := w.Write(ab[:]); err != nil {
			return err
		}
	}
	return nil
}

// readStep decodes one step body. io.EOF means a clean end of stream
// (no partial step consumed); any other error wraps ErrCorrupt.
func readStep(br *bufio.Reader) (cpu.Step, error) {
	var b [12]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		if err == io.EOF {
			return cpu.Step{}, io.EOF
		}
		return cpu.Step{}, fmt.Errorf("%w: truncated step header: %v", ErrCorrupt, err)
	}
	s := cpu.Step{Compute: int64(binary.LittleEndian.Uint64(b[0:]))}
	n := binary.LittleEndian.Uint32(b[8:])
	// The count comes off the wire: bound it before it drives the read
	// loop. Without this check a crafted count of ~4 billion walks an
	// append loop for as long as the input can feed it (OOM on piped or
	// adversarial streams).
	if n > MaxStepAccesses {
		return cpu.Step{}, fmt.Errorf("%w: step access count %d exceeds limit %d", ErrCorrupt, n, MaxStepAccesses)
	}
	if n == 0 {
		return s, nil
	}
	// Pre-size from the count but never trust it for more than a small
	// starting capacity — growth beyond that is paid for by real data.
	capHint := n
	if capHint > 1024 {
		capHint = 1024
	}
	s.Acc = make([]mem.Access, 0, capHint)
	var ab [13]byte
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, ab[:]); err != nil {
			return cpu.Step{}, fmt.Errorf("%w: truncated access: %v", ErrCorrupt, err)
		}
		s.Acc = append(s.Acc, mem.Access{
			Addr: binary.LittleEndian.Uint64(ab[0:]),
			Size: binary.LittleEndian.Uint32(ab[8:]),
			Op:   mem.Op(ab[12]),
		})
	}
	return s, nil
}

func readHeader(br *bufio.Reader) (int, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return 0, ErrBadHeader
	}
	return int(binary.LittleEndian.Uint32(hdr[4:])), nil
}

// ---------------------------------------------------------------------
// v2: multi-thread container.
//
// Layout after the 8-byte header:
//
//	name     uint16 len | bytes
//	threads  uint32 count
//	         per thread: uint16 label len | label bytes
//	warm     uint32 count
//	         per region: uint64 base | uint64 size
//	records  until EOF: uint32 thread ID | step body (shared codec)

// Thread is one recorded stream with its tenant label.
type Thread struct {
	Label string
	Steps []cpu.Step
}

// File is a fully decoded trace container.
type File struct {
	Version int
	Name    string
	Threads []Thread
	Warm    []Region
}

// Steps returns the total number of steps across all threads.
func (f *File) Steps() int64 {
	var n int64
	for _, t := range f.Threads {
		n += int64(len(t.Steps))
	}
	return n
}

// Labels returns the distinct thread labels in order of first
// appearance.
func (f *File) Labels() []string {
	seen := make(map[string]bool)
	var out []string
	for _, t := range f.Threads {
		if !seen[t.Label] {
			seen[t.Label] = true
			out = append(out, t.Label)
		}
	}
	return out
}

// Streams returns one replayable cpu.Stream per thread. Each stream
// also counts consumed steps via a Units() method — for the Table III
// generators one step is one work unit (page or SQL op), so replayed
// throughput stays commensurable with live runs.
func (f *File) Streams() []cpu.Stream { return f.StreamsFor("") }

// StreamsFor returns streams for the threads carrying the given tenant
// label; the empty label selects every thread.
func (f *File) StreamsFor(label string) []cpu.Stream {
	var out []cpu.Stream
	for i := range f.Threads {
		if label != "" && f.Threads[i].Label != label {
			continue
		}
		out = append(out, &stepStream{steps: f.Threads[i].Steps})
	}
	return out
}

type stepStream struct {
	steps []cpu.Step
	pos   int
}

func (s *stepStream) Next() (cpu.Step, bool) {
	if s.pos >= len(s.steps) {
		return cpu.Step{}, false
	}
	st := s.steps[s.pos]
	s.pos++
	return st, true
}

// Units implements workload.Progress: steps consumed so far.
func (s *stepStream) Units() int64 { return int64(s.pos) }

// WriterV2 serializes a multi-thread container incrementally.
type WriterV2 struct {
	w       *bufio.Writer
	threads int
	n       int64
	err     error
}

// NewWriterV2 writes the v2 header, thread table (one tenant label per
// thread), and warm-region table, and returns the writer.
func NewWriterV2(w io.Writer, name string, labels []string, warm []Region) (*WriterV2, error) {
	if len(labels) == 0 || len(labels) > MaxThreads {
		return nil, fmt.Errorf("trace: thread count %d outside [1, %d]", len(labels), MaxThreads)
	}
	if len(name) > maxName {
		return nil, fmt.Errorf("trace: name length %d exceeds limit %d", len(name), maxName)
	}
	if len(warm) > MaxWarmRegions {
		return nil, fmt.Errorf("trace: warm region count %d exceeds limit %d", len(warm), MaxWarmRegions)
	}
	for _, l := range labels {
		if len(l) > MaxLabel {
			return nil, fmt.Errorf("trace: label length %d exceeds limit %d", len(l), MaxLabel)
		}
	}
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version2)
	bw.Write(hdr[:])
	writeString(bw, name)
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(labels)))
	bw.Write(cnt[:])
	for _, l := range labels {
		writeString(bw, l)
	}
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(warm)))
	bw.Write(cnt[:])
	var rb [16]byte
	for _, r := range warm {
		binary.LittleEndian.PutUint64(rb[0:], r.Base)
		binary.LittleEndian.PutUint64(rb[8:], r.Size)
		bw.Write(rb[:])
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return &WriterV2{w: bw, threads: len(labels)}, nil
}

// WriteStep appends one step for the given thread.
func (t *WriterV2) WriteStep(thread int, s cpu.Step) error {
	if t.err != nil {
		return t.err
	}
	if thread < 0 || thread >= t.threads {
		return fmt.Errorf("trace: thread %d out of range [0, %d)", thread, t.threads)
	}
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], uint32(thread))
	if _, err := t.w.Write(tb[:]); err != nil {
		t.err = err
		return err
	}
	if err := writeStep(t.w, s); err != nil {
		t.err = err
		return err
	}
	t.n++
	return nil
}

// Steps returns the number of steps written across all threads.
func (t *WriterV2) Steps() int64 { return t.n }

// Flush drains the buffer.
func (t *WriterV2) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.w.Flush()
}

func writeString(w *bufio.Writer, s string) {
	var lb [2]byte
	binary.LittleEndian.PutUint16(lb[:], uint16(len(s)))
	w.Write(lb[:])
	w.WriteString(s)
}

// RecordAll drains every stream into a v2 container, one tenant label
// per stream, interleaving steps round-robin. The on-disk order is
// irrelevant — Decode demuxes per thread — but interleaving keeps a
// truncated file roughly balanced across threads. It returns the total
// number of steps recorded.
func RecordAll(w io.Writer, name string, labels []string, warm []Region, streams []cpu.Stream) (int64, error) {
	if len(streams) != len(labels) {
		return 0, fmt.Errorf("trace: %d streams but %d labels", len(streams), len(labels))
	}
	tw, err := NewWriterV2(w, name, labels, warm)
	if err != nil {
		return 0, err
	}
	live := make([]bool, len(streams))
	for i := range live {
		live[i] = true
	}
	active := len(streams)
	for active > 0 {
		for i, s := range streams {
			if !live[i] {
				continue
			}
			step, ok := s.Next()
			if !ok {
				live[i] = false
				active--
				continue
			}
			if err := tw.WriteStep(i, step); err != nil {
				return tw.Steps(), err
			}
		}
	}
	return tw.Steps(), tw.Flush()
}

// Encode serializes a File as a v2 container (regardless of the
// version it was decoded from).
func Encode(w io.Writer, f *File) error {
	labels := make([]string, len(f.Threads))
	for i, t := range f.Threads {
		labels[i] = t.Label
	}
	tw, err := NewWriterV2(w, f.Name, labels, f.Warm)
	if err != nil {
		return err
	}
	for ti, th := range f.Threads {
		for _, s := range th.Steps {
			if err := tw.WriteStep(ti, s); err != nil {
				return err
			}
		}
	}
	return tw.Flush()
}

// Decode reads an entire trace container — v1 or v2 — into memory,
// demuxing interleaved records into per-thread step lists. A v1 stream
// decodes as a single unlabeled thread with no warm regions.
func Decode(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	v, err := readHeader(br)
	if err != nil {
		return nil, err
	}
	switch v {
	case Version1:
		return decodeV1(br)
	case Version2:
		return decodeV2(br)
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
}

func decodeV1(br *bufio.Reader) (*File, error) {
	f := &File{Version: Version1, Threads: []Thread{{}}}
	for {
		s, err := readStep(br)
		if err == io.EOF {
			return f, nil
		}
		if err != nil {
			return nil, err
		}
		f.Threads[0].Steps = append(f.Threads[0].Steps, s)
	}
}

func decodeV2(br *bufio.Reader) (*File, error) {
	f := &File{Version: Version2}
	name, err := readString(br, maxName, "name")
	if err != nil {
		return nil, err
	}
	f.Name = name
	nThreads, err := readCount(br, MaxThreads, "thread")
	if err != nil {
		return nil, err
	}
	if nThreads == 0 {
		return nil, fmt.Errorf("%w: zero threads", ErrCorrupt)
	}
	f.Threads = make([]Thread, nThreads)
	for i := range f.Threads {
		l, err := readString(br, MaxLabel, "label")
		if err != nil {
			return nil, err
		}
		f.Threads[i].Label = l
	}
	nWarm, err := readCount(br, MaxWarmRegions, "warm region")
	if err != nil {
		return nil, err
	}
	if nWarm > 0 {
		f.Warm = make([]Region, nWarm)
		var rb [16]byte
		for i := range f.Warm {
			if _, err := io.ReadFull(br, rb[:]); err != nil {
				return nil, fmt.Errorf("%w: truncated warm region: %v", ErrCorrupt, err)
			}
			f.Warm[i] = Region{
				Base: binary.LittleEndian.Uint64(rb[0:]),
				Size: binary.LittleEndian.Uint64(rb[8:]),
			}
		}
	}
	var tb [4]byte
	for {
		if _, err := io.ReadFull(br, tb[:]); err != nil {
			if err == io.EOF {
				return f, nil
			}
			return nil, fmt.Errorf("%w: truncated record header: %v", ErrCorrupt, err)
		}
		ti := binary.LittleEndian.Uint32(tb[:])
		if ti >= nThreads {
			return nil, fmt.Errorf("%w: record thread %d out of range [0, %d)", ErrCorrupt, ti, nThreads)
		}
		s, err := readStep(br)
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("%w: record header without step body", ErrCorrupt)
			}
			return nil, err
		}
		f.Threads[ti].Steps = append(f.Threads[ti].Steps, s)
	}
}

func readCount(br *bufio.Reader, limit uint32, what string) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return 0, fmt.Errorf("%w: truncated %s count: %v", ErrCorrupt, what, err)
	}
	n := binary.LittleEndian.Uint32(b[:])
	if n > limit {
		return 0, fmt.Errorf("%w: %s count %d exceeds limit %d", ErrCorrupt, what, n, limit)
	}
	return n, nil
}

func readString(br *bufio.Reader, limit int, what string) (string, error) {
	var lb [2]byte
	if _, err := io.ReadFull(br, lb[:]); err != nil {
		return "", fmt.Errorf("%w: truncated %s length: %v", ErrCorrupt, what, err)
	}
	n := int(binary.LittleEndian.Uint16(lb[:]))
	if n > limit {
		return "", fmt.Errorf("%w: %s length %d exceeds limit %d", ErrCorrupt, what, n, limit)
	}
	if n == 0 {
		return "", nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", fmt.Errorf("%w: truncated %s: %v", ErrCorrupt, what, err)
	}
	return string(b), nil
}
