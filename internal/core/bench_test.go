package core

import "testing"

// BenchmarkWritePerfMode measures one performance-mode 16 KB write
// through the sequential engine — identify, DMT lookup, admission and the
// PFS fan-out — to its virtual-time completion, with no Rebuilder
// running, cycling over 4 MB of one file from 4 ranks.
func BenchmarkWritePerfMode(b *testing.B) {
	tb := newPerfTestbed(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%256) * (16 << 10)
		if err := tb.s4d.Write(i%4, "f", off, 16<<10, nil, nil); err != nil {
			b.Fatal(err)
		}
		tb.eng.Run()
	}
}
