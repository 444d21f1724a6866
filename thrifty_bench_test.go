// BenchmarkThrifty is the perf-regression gate for the Thrifty fast path:
// uninstrumented runs (no counters, no trace, no line tracking) on the two
// medium-scale skewed fixtures the paper's headline numbers target
// (harness.RegressionFixtures). Compare commits with
// `go test -run '^$' -bench 'BenchmarkThrifty$' -count 10`.
package thriftylp_test

import (
	"fmt"
	"testing"

	"thriftylp/cc"
	"thriftylp/internal/harness"
)

func BenchmarkThrifty(b *testing.B) {
	for _, f := range harness.RegressionFixtures() {
		g, err := f.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.Name, func(b *testing.B) {
			var iters int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cc.Run(cc.AlgoThrifty, g)
				if err != nil {
					b.Fatal(err)
				}
				iters = res.Iterations
			}
			b.ReportMetric(float64(iters), "iterations")
			b.ReportMetric(float64(g.NumEdges())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Medges/s")
		})
	}
}

// BenchmarkThriftyInstrumented times the counting path on the same fixtures,
// so the cost of opting into instrumentation stays visible (it is paid only
// when requested; plain runs take the fast path above).
func BenchmarkThriftyInstrumented(b *testing.B) {
	for _, f := range harness.RegressionFixtures() {
		g, err := f.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.Name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst := &cc.Instrumentation{}
				if _, err := cc.Run(cc.AlgoThrifty, g, cc.WithInstrumentation(inst)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastPathBaselines times the uninstrumented fast path of every
// other kernel, all on the instrumentation-policy design, catching
// regressions outside the headline algorithm and giving the Thrifty/baseline
// ratios a bare denominator. It reports allocations: a DO-LP run's bytes are
// its two labels arrays, two bitmaps and the push queue's lists.
func BenchmarkFastPathBaselines(b *testing.B) {
	fixtures := harness.RegressionFixtures()
	g, err := fixtures[0].Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range []cc.Algorithm{
		cc.AlgoDOLP, cc.AlgoDOLPUnified, cc.AlgoLP,
		cc.AlgoSV, cc.AlgoFastSV, cc.AlgoJayantiT, cc.AlgoBFSCC,
		cc.AlgoAfforest, cc.AlgoConnectItKOut, cc.AlgoConnectItBFS,
	} {
		b.Run(fmt.Sprintf("%s/%s", fixtures[0].Name, a), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cc.Run(a, g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
