package mem

// SparseStore is a byte-addressable backing store that allocates 4 KiB
// frames lazily. It lets the simulator model terabyte address spaces
// (the 800 GB ULL-Flash archive, an 8 GB NVDIMM) while only paying for
// pages a workload actually touches. Unwritten bytes read as zero.
//
// Frames are indexed by a two-level radix table (frame id split into
// chunk / offset) instead of a map: the per-access lookups on the
// simulator's hot path become two slice loads, and iteration order
// (CopyFrom, Frames, SaveState) is deterministic by construction.
type SparseStore struct {
	chunks [][]*[frameSize]byte // fid>>framesPerChunkBits → chunk
	n      int                  // allocated frames
}

const (
	frameSize          = 4 * KiB
	framesPerChunkBits = 12 // 4096 frame pointers (32 KiB) per chunk
	framesPerChunk     = 1 << framesPerChunkBits
	frameChunkMask     = framesPerChunk - 1
)

var zeroFrame [frameSize]byte

// NewSparseStore returns an empty store.
func NewSparseStore() *SparseStore { return &SparseStore{} }

// frame returns the frame holding fid, or nil when never written.
func (s *SparseStore) frame(fid uint64) *[frameSize]byte {
	ci := fid >> framesPerChunkBits
	if ci >= uint64(len(s.chunks)) || s.chunks[ci] == nil {
		return nil
	}
	return s.chunks[ci][fid&frameChunkMask]
}

// ensureFrame returns the frame holding fid, allocating it if needed.
func (s *SparseStore) ensureFrame(fid uint64) *[frameSize]byte {
	ci := fid >> framesPerChunkBits
	for uint64(len(s.chunks)) <= ci {
		s.chunks = append(s.chunks, nil)
	}
	if s.chunks[ci] == nil {
		s.chunks[ci] = make([]*[frameSize]byte, framesPerChunk)
	}
	f := s.chunks[ci][fid&frameChunkMask]
	if f == nil {
		f = new([frameSize]byte)
		s.chunks[ci][fid&frameChunkMask] = f
		s.n++
	}
	return f
}

// ReadAt copies len(p) bytes starting at addr into p.
func (s *SparseStore) ReadAt(addr uint64, p []byte) {
	for len(p) > 0 {
		fid := addr / frameSize
		off := addr % frameSize
		n := frameSize - off
		if n > uint64(len(p)) {
			n = uint64(len(p))
		}
		if f := s.frame(fid); f != nil {
			copy(p[:n], f[off:off+n])
		} else {
			copy(p[:n], zeroFrame[:n])
		}
		p = p[n:]
		addr += n
	}
}

// WriteAt copies p into the store starting at addr.
func (s *SparseStore) WriteAt(addr uint64, p []byte) {
	for len(p) > 0 {
		fid := addr / frameSize
		off := addr % frameSize
		n := frameSize - off
		if n > uint64(len(p)) {
			n = uint64(len(p))
		}
		f := s.ensureFrame(fid)
		copy(f[off:off+n], p[:n])
		p = p[n:]
		addr += n
	}
}

// Copy moves n bytes from src to dst within the store, tolerating
// overlap (used for page clones into the PRP pool).
func (s *SparseStore) Copy(dst, src uint64, n uint64) {
	if n == 0 || dst == src {
		return
	}
	if dst < src+n && src < dst+n {
		// Overlapping ranges: stage the whole source first so the copy
		// behaves like memmove. Never hit by the PRP-clone hot path,
		// whose pool is disjoint from the cache region.
		buf := make([]byte, n)
		s.ReadAt(src, buf)
		s.WriteAt(dst, buf)
		return
	}
	var buf [frameSize]byte
	for n > 0 {
		c := uint64(frameSize)
		if c > n {
			c = n
		}
		s.ReadAt(src, buf[:c])
		s.WriteAt(dst, buf[:c])
		src += c
		dst += c
		n -= c
	}
}

// Zero clears n bytes starting at addr.
func (s *SparseStore) Zero(addr, n uint64) {
	for n > 0 {
		c := uint64(frameSize)
		if c > n {
			c = n
		}
		s.WriteAt(addr, zeroFrame[:c])
		addr += c
		n -= c
	}
}

// Frames returns the number of allocated 4 KiB frames (resident set).
func (s *SparseStore) Frames() int { return s.n }

// CopyFrom makes s hold exactly src's contents and frame set, reusing
// the frames s already has: a frame both stores hold is overwritten in
// place, one only src holds is allocated, and one only s holds is
// dropped. Copying between two stores with the same frame set — the
// NVDIMM's backup image and its DRAM on every power cycle — therefore
// allocates nothing.
func (s *SparseStore) CopyFrom(src *SparseStore) {
	if s == src {
		return
	}
	for len(s.chunks) < len(src.chunks) {
		s.chunks = append(s.chunks, nil)
	}
	for ci, dc := range s.chunks {
		var sc []*[frameSize]byte
		if ci < len(src.chunks) {
			sc = src.chunks[ci]
		}
		if sc == nil {
			for _, f := range dc {
				if f != nil {
					s.n--
				}
			}
			s.chunks[ci] = nil
			continue
		}
		if dc == nil {
			dc = make([]*[frameSize]byte, framesPerChunk)
			s.chunks[ci] = dc
		}
		for i, f := range sc {
			switch {
			case f != nil && dc[i] != nil:
				*dc[i] = *f
			case f != nil:
				nf := *f
				dc[i] = &nf
				s.n++
			case dc[i] != nil:
				dc[i] = nil
				s.n--
			}
		}
	}
	s.chunks = s.chunks[:len(src.chunks)]
}
