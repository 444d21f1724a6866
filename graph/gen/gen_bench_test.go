package gen

import "testing"

func BenchmarkRMATEdges(b *testing.B) {
	cfg := DefaultRMAT(16, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		edges, err := RMATEdges(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(edges) * 8))
	}
	b.ReportMetric(float64((1<<16)*16)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
}

// BenchmarkRMATStream replays every chunk of the RMAT-16 stream on one
// goroutine: the per-thread rate of each replay shard.StreamWrite makes.
func BenchmarkRMATStream(b *testing.B) {
	s, err := NewRMATStream(DefaultRMAT(16, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	var sink uint32
	for i := 0; i < b.N; i++ {
		for ci := 0; ci < s.Chunks(); ci++ {
			s.Chunk(ci, func(u, v uint32) { sink += u ^ v })
		}
	}
	b.ReportMetric(float64(s.Edges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
	streamSink = sink
}

var streamSink uint32

func BenchmarkRMATBuild(b *testing.B) {
	cfg := DefaultRMAT(15, 16, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RMAT(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErdosRenyi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ErdosRenyi(1<<16, 1<<20, 3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Grid(GridConfig{Rows: 512, Cols: 512, DropFraction: 0.03, Seed: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWeb(b *testing.B) {
	cfg := DefaultWeb(14, 5)
	for i := 0; i < b.N; i++ {
		if _, err := Web(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBarabasiAlbert(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := BarabasiAlbert(1<<15, 8, 6); err != nil {
			b.Fatal(err)
		}
	}
}
