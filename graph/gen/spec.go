package gen

import (
	"fmt"
	"strconv"
	"strings"

	"thriftylp/graph"
)

// Spec is a parsed generator spec, "family[:a[:b]]": the -gen syntax of the
// command-line tools. An empty or absent argument takes the family's
// default:
//
//	rmat:<scale>[:<edge factor>]   18, 16
//	web:<scale>                    16
//	road:<n>, star:<n>, path:<n>   2^20
//	er:<n>[:<edges>]               2^18, 8n
//	ba:<n>[:<edges per vertex>]    2^18, 8
type Spec struct {
	// Family names the generator; A and B are its arguments with the
	// defaults applied (B is 0 for one-argument families).
	Family string
	A, B   int
}

// specDefaults lists each family's argument defaults, one per argument it
// takes. er's edge count defaults to 8n, which ParseSpec fills in.
var specDefaults = map[string][]int{
	"rmat": {18, 16},
	"web":  {16},
	"road": {1 << 20},
	"star": {1 << 20},
	"path": {1 << 20},
	"er":   {1 << 18, -1},
	"ba":   {1 << 18, 8},
}

// ParseSpec parses a generator spec strictly: the family must be known,
// every argument must be a non-negative decimal integer, and no argument may
// follow the family's last one.
func ParseSpec(s string) (Spec, error) {
	parts := strings.Split(s, ":")
	defs, ok := specDefaults[parts[0]]
	if !ok {
		return Spec{}, fmt.Errorf("unknown generator %q", parts[0])
	}
	if len(parts)-1 > len(defs) {
		return Spec{}, fmt.Errorf("generator spec %q: %s takes at most %d arguments", s, parts[0], len(defs))
	}
	sp := Spec{Family: parts[0]}
	args := []*int{&sp.A, &sp.B}
	for i, def := range defs {
		*args[i] = def
		if i+1 >= len(parts) || parts[i+1] == "" {
			continue
		}
		v, err := strconv.Atoi(parts[i+1])
		if err != nil || v < 0 {
			return Spec{}, fmt.Errorf("generator spec %q: argument %q is not a non-negative integer", s, parts[i+1])
		}
		*args[i] = v
	}
	if sp.B < 0 {
		sp.B = 8 * sp.A
	}
	return sp, nil
}

// RMAT returns the configuration an rmat spec describes.
func (s Spec) RMAT(seed uint64) RMATConfig { return DefaultRMAT(s.A, s.B, seed) }

// Build generates the graph the spec describes.
func (s Spec) Build(seed uint64) (*graph.Graph, error) {
	switch s.Family {
	case "rmat":
		return RMATCompact(s.RMAT(seed))
	case "web":
		return Web(DefaultWeb(s.A, seed))
	case "road":
		return Road(s.A, seed)
	case "star":
		return Star(s.A)
	case "path":
		return Path(s.A)
	case "er":
		return ErdosRenyi(s.A, s.B, seed)
	case "ba":
		return BarabasiAlbert(s.A, s.B, seed)
	}
	return nil, fmt.Errorf("unknown generator %q", s.Family)
}
