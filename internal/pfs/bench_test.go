package pfs

import (
	"testing"

	"s4dcache/internal/sim"
)

// BenchmarkWritePerfMode measures one performance-mode 256 KB write
// striped over 8 HDD servers, through to its virtual-time completion.
func BenchmarkWritePerfMode(b *testing.B) {
	eng, fs := newPerfFS(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * (256 << 10)
		if err := fs.Write("f", off, 256<<10, sim.PriorityHigh, nil, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}

// BenchmarkReadPerfMode measures one performance-mode 256 KB read of a
// previously written 256 MB file.
func BenchmarkReadPerfMode(b *testing.B) {
	eng, fs := newPerfFS(b)
	if err := fs.Write("f", 0, 256<<20, sim.PriorityHigh, nil, nil); err != nil {
		b.Fatal(err)
	}
	eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * (256 << 10)
		if err := fs.Read("f", off, 256<<10, sim.PriorityHigh, nil, nil); err != nil {
			b.Fatal(err)
		}
		eng.Run()
	}
}
