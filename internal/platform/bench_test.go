package platform

import (
	"runtime"
	"testing"

	"hams/internal/mem"
)

// pageCachePlatforms are the platforms whose cache is a mem.PageLRU.
var pageCachePlatforms = []string{"mmap", "optane-M", "flatflash-M", "nvdimm-C"}

// warmFourThreads warms what a 4-thread rndRd cell warms: four 1 GiB
// regions, 4 GiB apart.
func warmFourThreads(p Platform) {
	for i := uint64(0); i < 4; i++ {
		p.Warm(i*4*mem.GiB, mem.GiB)
	}
}

// BenchmarkWarm measures the untimed warm-up every figure cell on a
// page-cache platform starts with. Platform construction is not timed.
func BenchmarkWarm(b *testing.B) {
	for _, name := range pageCachePlatforms {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := mk(b, name)
				b.StartTimer()
				warmFourThreads(p)
			}
		})
	}
}

// TestWarmAllocBytes bounds the bytes a page cache allocates to warm
// four 1 GiB regions: runs keep it to the payload slices and a few
// stored chunks, where one entry per page took about 55 MB.
func TestWarmAllocBytes(t *testing.T) {
	const limit = 8 * mem.MiB
	for _, name := range pageCachePlatforms {
		p := mk(t, name)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		warmFourThreads(p)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("%s: warming 4 x 1 GiB allocated %d bytes, want at most %d", name, got, limit)
		}
	}
}
