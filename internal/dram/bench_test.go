package dram

import (
	"testing"

	"hams/internal/mem"
)

// residentNVDIMM returns a module whose DRAM holds frames of 4 KiB
// spread over its capacity, like a warmed MoS cache plus pinned queues.
func residentNVDIMM(frames int) *NVDIMM {
	n := NewNVDIMM(NVDIMMConfig{DRAM: testCfg()})
	var page [4 * mem.KiB]byte
	stride := n.Capacity() / uint64(frames)
	for i := 0; i < frames; i++ {
		page[0] = byte(i)
		n.WriteAt(uint64(i)*stride, page[:])
	}
	return n
}

// BenchmarkNVDIMMPowerCycle measures one supercap backup plus boot-time
// restore of a 16 MiB resident image: the host cost every simulated
// power failure pays once the backup image exists.
func BenchmarkNVDIMMPowerCycle(b *testing.B) {
	n := residentNVDIMM(4096)
	n.PowerFail()
	n.Restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.PowerFail()
		n.Restore()
	}
}

// TestNVDIMMPowerCycleZeroAllocs pins the in-place backup: once the
// image exists, a PowerFail+Restore cycle copies frame to frame and
// allocates nothing.
func TestNVDIMMPowerCycleZeroAllocs(t *testing.T) {
	n := residentNVDIMM(256)
	n.PowerFail()
	n.Restore()
	avg := testing.AllocsPerRun(50, func() {
		n.PowerFail()
		n.Restore()
	})
	if avg != 0 {
		t.Fatalf("PowerFail+Restore allocates %.1f/op after the first cycle, want 0", avg)
	}
	if n.Backups() != 52 || n.Restores() != 52 {
		t.Fatalf("backups=%d restores=%d, want 52 each", n.Backups(), n.Restores())
	}
}
