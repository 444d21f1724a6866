package cfg

import "fmt"

// Forward solves a forward dataflow problem over g to its fixpoint and
// returns each reached block's in-state. The entry block starts at entry;
// transfer pushes a block's in-state through it and returns one out-state
// per successor, so a branch condition can refine each edge; join merges
// an out-state into a successor's in-state (whose zero S stands for "not
// yet reached") and reports whether it grew.
//
// A block is queued when first reached, even along an edge whose out-state
// is empty (an infeasible branch), and afterwards only when its in-state
// grows. With height the most times an in-state can grow after its first
// record, a fixpoint takes at most (height+1)·|blocks| visits; going past
// that means the lattice is broken, and Forward panics naming what rather
// than spin.
func Forward[S any](g *CFG, what string, height int, entry S,
	join func(dst, src S) (S, bool), transfer func(*Block, S) []S) map[*Block]S {
	in := map[*Block]S{g.Entry: entry}
	work := []*Block{g.Entry}
	queued := make([]bool, len(g.Blocks))
	queued[g.Entry.Index] = true
	budget := (height + 1) * len(g.Blocks)
	for visits := 0; len(work) > 0; visits++ {
		if visits == budget {
			panic(fmt.Sprintf("%s exceeded %d block visits", what, budget))
		}
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false

		outs := transfer(blk, in[blk])
		for i, succ := range blk.Succs {
			old, reached := in[succ]
			merged, grew := join(old, outs[i])
			if !grew && reached {
				continue
			}
			in[succ] = merged
			if !queued[succ.Index] {
				work = append(work, succ)
				queued[succ.Index] = true
			}
		}
	}
	return in
}
