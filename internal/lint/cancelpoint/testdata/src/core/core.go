// Fixture for the cancelpoint analyzer. The package is named core so the
// package-path gate applies; it defines its own Config/cancelPoint pair with
// the same shapes as the real kernel package.
package core

type Result struct{ Iterations int }

type Config struct{ stopped bool }

func (c *Config) cancelPoint(res *Result) bool { return c.stopped }

// GoodDirect polls at its own iteration boundary.
func GoodDirect(n int, cfg *Config) Result {
	var res Result
	for i := 0; i < n; i++ {
		res.Iterations++
		if cfg.cancelPoint(&res) {
			break
		}
	}
	return res
}

// GoodViaHelper reaches the poll through an unexported helper, like the
// generic kernel bodies in the real package.
func GoodViaHelper(cfg *Config) Result {
	var res Result
	iterate(cfg, &res)
	return res
}

func iterate(cfg *Config, res *Result) {
	for !cfg.cancelPoint(res) {
		res.Iterations++
	}
}

// GoodViaGenericHelper reaches the poll through a helper instantiated with
// two explicit type arguments, like dolpRun[A, P] in the real package.
func GoodViaGenericHelper(cfg *Config) Result {
	var res Result
	helper[int, string](cfg, &res)
	return res
}

func helper[K any, V any](cfg *Config, res *Result) {
	for !cfg.cancelPoint(res) {
		res.Iterations++
	}
}

// GoodByValue takes Config by value; the poll still counts.
func GoodByValue(cfg Config) Result {
	var res Result
	cfg.cancelPoint(&res)
	return res
}

func BadKernel(n int, cfg *Config) Result { // want `never reaches cfg\.cancelPoint`
	var res Result
	for i := 0; i < n; i++ {
		res.Iterations++
	}
	return res
}

func BadViaHelper(cfg *Config) Result { // want `never reaches cfg\.cancelPoint`
	var res Result
	spin(&res)
	return res
}

func spin(res *Result) { res.Iterations++ }

// ExemptSetup declares itself non-iterative.
//
//thrifty:nocancel
func ExemptSetup(cfg *Config) Result { return Result{} }

// notExported is not a kernel entry: unexported functions are reachable
// only through exported ones, which carry the obligation.
func notExported(cfg *Config) {}

// NoConfig is exported but takes no Config, so it is not a kernel entry.
func NoConfig(n int) int { return n * 2 }
