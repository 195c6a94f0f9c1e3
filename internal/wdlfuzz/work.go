package wdlfuzz

import "encoding/json"

// EstimateWork approximates the instruction volume a spec would emit
// at SizeTest from its generic JSON form, without compiling it: the
// product of each block's size-like fields, summed over blocks, scaled
// by phase and spec repeats. It deliberately over-estimates — its one
// job is to reject astronomically-inflated mutants before a drain or
// probe wades into a single multi-billion-instruction batch, which the
// per-batch drain cap cannot interrupt.
func EstimateWork(src []byte) float64 {
	var spec map[string]any
	if err := json.Unmarshal(src, &spec); err != nil {
		return 0
	}
	total := 0.0
	phases, _ := spec["phases"].([]any)
	for _, p := range phases {
		ph, _ := p.(map[string]any)
		if ph == nil {
			continue
		}
		w := 0.0
		blocks, _ := ph["blocks"].([]any)
		for _, b := range blocks {
			blk, _ := b.(map[string]any)
			if blk == nil {
				continue
			}
			bw := 1.0
			for _, k := range []string{"count", "walks", "elems", "grid", "nodes", "depth", "points", "degree"} {
				if v, ok := blk[k].(float64); ok && v > 1 {
					bw *= v
					if bw > 1e18 {
						return bw
					}
				}
			}
			w += bw
		}
		// float64() rounds the product, so no architecture fuses it (DESIGN.md §9).
		total += float64(w * numOr(ph["repeat"], 1))
	}
	total *= numOr(spec["repeat"], 1)
	if sc, ok := spec["scale"].(map[string]any); ok {
		total *= numOr(sc["test"], 1)
	}
	return total
}

func numOr(v any, def float64) float64 {
	if f, ok := v.(float64); ok && f > def {
		return f
	}
	return def
}

// maxWork is the EstimateWork ceiling a mutant must stay under to be
// probed; beyond it the campaign counts a skip.
const maxWork = 4_000_000
