package harness

import (
	"context"
	"math"
	"time"

	"thriftylp/cc"
	"thriftylp/graph"
	"thriftylp/graph/gen"
)

// RunConfig carries experiment-wide settings.
type RunConfig struct {
	// Scale selects dataset sizes (default ScaleMedium).
	Scale Scale
	// Reps is the number of timed repetitions per measurement; the minimum
	// is reported, the paper's convention for eliminating scheduler noise.
	// Default 3.
	Reps int
	// Threads sizes the worker pool; 0 = GOMAXPROCS.
	Threads int
	// Ctx, when non-nil, bounds every run: cancellation (SIGINT, -timeout)
	// aborts the experiment at the next algorithm iteration boundary
	// instead of leaving a long benchmark unkillable. nil means
	// context.Background().
	Ctx context.Context
}

func (c RunConfig) ctx() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

func (c RunConfig) scale() Scale {
	if c.Scale == "" {
		return ScaleMedium
	}
	return c.Scale
}

func (c RunConfig) reps() int {
	if c.Reps <= 0 {
		return 3
	}
	return c.Reps
}

func (c RunConfig) opts(extra ...cc.Option) []cc.Option {
	var opts []cc.Option
	if c.Threads > 0 {
		opts = append(opts, cc.WithThreads(c.Threads))
	}
	return append(opts, extra...)
}

// RegressionFixture is one deterministic graph of the kernel perf gate.
type RegressionFixture struct {
	Name  string
	Build func() (*graph.Graph, error)
}

// RegressionFixtures returns the perf-gate fixtures: a pure RMAT social
// analog (pull-heavy, few iterations) and a web-crawl analog (skewed core
// plus pendant chains, the push-heavy many-iteration regime). Both are
// seed-deterministic so numbers are comparable across runs and commits.
func RegressionFixtures() []RegressionFixture {
	return []RegressionFixture{
		{"rmat-medium", func() (*graph.Graph, error) {
			return gen.RMATCompact(gen.DefaultRMAT(17, 16, 42))
		}},
		{"weblike-medium", func() (*graph.Graph, error) {
			return gen.Web(gen.DefaultWeb(16, 42))
		}},
	}
}

// TimeAlgorithm measures algorithm a on g: one warmup run, then reps timed
// runs, returning the minimum wall time and the last result.
func TimeAlgorithm(a cc.Algorithm, g *graph.Graph, cfg RunConfig, extra ...cc.Option) (time.Duration, cc.Result, error) {
	opts := cfg.opts(extra...)
	ctx := cfg.ctx()
	res, err := cc.RunContext(ctx, a, g, opts...)
	if err != nil {
		return 0, cc.Result{}, err
	}
	best := time.Duration(math.MaxInt64)
	for i := 0; i < cfg.reps(); i++ {
		start := time.Now()
		res, err = cc.RunContext(ctx, a, g, opts...)
		if err != nil {
			return 0, cc.Result{}, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, res, nil
}

// Millis renders a duration as fractional milliseconds, the paper's unit.
func Millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Geomean returns the geometric mean of vs (ignoring non-positive entries,
// which would otherwise poison the logarithm).
func Geomean(vs []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
