package main

import (
	"math"
	"sort"

	"cs2p/internal/mathx"
)

// fastQuartile is the reported value of a sliced metric: the quartile on the
// metric's good side (q3 when higher is better, q1 when lower is). On a
// pinned core interference only ever slows a slice, so the fast side sits on
// the undisturbed plateau while the median and the mean follow whatever share
// of the run was disturbed.
func fastQuartile(vals []float64, higherBetter bool) float64 {
	if higherBetter {
		return mathx.Quantile(vals, 0.75)
	}
	return mathx.Quantile(vals, 0.25)
}

// disturbedShare is the share of slices more than 10% worse than ref.
func disturbedShare(vals []float64, ref float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	n := 0
	for _, v := range vals {
		if (higherBetter && v < ref*0.9) || (!higherBetter && v > ref*1.1) {
			n++
		}
	}
	return float64(n) / float64(len(vals))
}

// percentileMs returns the p-th percentile (nearest rank) of sorted
// nanosecond samples, in milliseconds.
func percentileMs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / 1e6
}

// p99Blocks partitions consecutive slices into blocks that each hold at
// least minSamples samples (a block is one slice when slices are busy enough)
// and returns each block's sorted samples. A trailing remainder joins the
// last block.
func p99Blocks(slices [][]int64, minSamples int) [][]int64 {
	var blocks [][]int64
	var cur []int64
	for _, s := range slices {
		cur = append(cur, s...)
		if len(cur) >= minSamples {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		if len(blocks) == 0 {
			blocks = append(blocks, cur)
		} else {
			blocks[len(blocks)-1] = append(blocks[len(blocks)-1], cur...)
		}
	}
	for _, b := range blocks {
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	}
	return blocks
}
