// Benchmarks mapping to the paper's tables and figures (see DESIGN.md
// §3 for the index). These run on reduced degree grids so that
// `go test -bench=.` finishes quickly; cmd/rootbench reproduces the
// full-size sweeps.
package realroots

import (
	"fmt"
	"math/big"
	"testing"
	"time"

	"realroots/internal/core"
	"realroots/internal/harness"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/model"
	"realroots/internal/mp"
	"realroots/internal/remseq"
	"realroots/internal/sturm"
	"realroots/internal/vca"
	"realroots/internal/workload"
)

var benchDegrees = []int{10, 20, 30}

// BenchmarkSingleProcessor reproduces Table 2's single-processor grid.
func BenchmarkSingleProcessor(b *testing.B) {
	for _, n := range benchDegrees {
		for _, mu := range []uint{4, 8, 16, 24, 32} {
			p := harness.Instance(1, n)
			b.Run(fmt.Sprintf("n=%d/mu=%d", n, mu), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.FindRoots(p, core.Options{Mu: mu}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSpeedup reproduces the worker sweep behind Tables 3-7 and
// Figures 9-13.
func BenchmarkSpeedup(b *testing.B) {
	for _, n := range benchDegrees {
		for _, workers := range []int{1, 2, 4, 8, 16} {
			p := harness.Instance(1, n)
			b.Run(fmt.Sprintf("n=%d/P=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.FindRoots(p, core.Options{Mu: 16, Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkVsSturm reproduces Figure 8: the algorithm on one worker
// against the sequential Sturm baseline at µ = 30.
func BenchmarkVsSturm(b *testing.B) {
	const mu = 30
	for _, n := range benchDegrees {
		p := harness.Instance(1, n)
		b.Run(fmt.Sprintf("algorithm/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FindRoots(p, core.Options{Mu: mu}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sturm/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sturm.FindRoots(p, mu, metrics.Ctx{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("vca/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := vca.FindRoots(p, mu, metrics.Ctx{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPhases reports the per-phase multiplication counts and bit
// complexities behind Table 1 and Figures 2-7 as benchmark metrics,
// alongside the model's predictions.
func BenchmarkPhases(b *testing.B) {
	for _, n := range benchDegrees {
		for _, mu := range []uint{8, 32} {
			p := harness.Instance(1, n)
			b.Run(fmt.Sprintf("n=%d/mu=%d", n, mu), func(b *testing.B) {
				var rep metrics.Report
				for i := 0; i < b.N; i++ {
					var c metrics.Counters
					if _, err := core.FindRoots(p, core.Options{Mu: mu, Counters: &c}); err != nil {
						b.Fatal(err)
					}
					rep = c.Snapshot()
				}
				pred := model.Params{
					N: n, M: p.MaxCoeffBits(), Mu: mu,
					R: p.RootBound().BitLen() - 1, Range: 6,
				}.Predict()
				b.ReportMetric(float64(rep.Total().Muls), "muls-observed")
				b.ReportMetric(pred.Total().Muls, "muls-predicted")
				b.ReportMetric(float64(rep.Phases[metrics.PhaseBisection].Muls), "bisect-muls")
				b.ReportMetric(float64(rep.Phases[metrics.PhaseBisection].MulBits), "bisect-bits")
			})
		}
	}
}

// BenchmarkIntervalMethods is ablation abl1: the paper's hybrid interval
// solver against pure bisection and pure Newton.
func BenchmarkIntervalMethods(b *testing.B) {
	p := harness.Instance(1, 25)
	for _, m := range []interval.Method{interval.MethodHybrid, interval.MethodBisection, interval.MethodNewton} {
		for _, mu := range []uint{8, 64} {
			b.Run(fmt.Sprintf("%v/mu=%d", m, mu), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.FindRoots(p, core.Options{Mu: mu, Method: m}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkMulAlgorithms is ablation abl2: the paper's schoolbook "mp"
// arithmetic against the subquadratic fast profile.
func BenchmarkMulAlgorithms(b *testing.B) {
	p := harness.Instance(1, 30)
	for _, prof := range []mp.Profile{mp.Schoolbook, mp.Fast} {
		name := "schoolbook"
		if prof == mp.Fast {
			name = "karatsuba"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FindRoots(p, core.Options{Mu: 32, Profile: prof}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrecompute is ablation abl3: the paper's run-time option of
// computing the remainder sequence sequentially vs in parallel.
func BenchmarkPrecompute(b *testing.B) {
	p := harness.Instance(1, 30)
	for _, seq := range []bool{true, false} {
		name := "sequential"
		if !seq {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.FindRoots(p, core.Options{Mu: 16, Workers: 8, SequentialPrecompute: seq}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRemainderSequence isolates the precomputation stage.
func BenchmarkRemainderSequence(b *testing.B) {
	for _, n := range benchDegrees {
		p := harness.Instance(1, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := remseq.Compute(p, remseq.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicAPI measures the user-facing entry point end to end.
func BenchmarkPublicAPI(b *testing.B) {
	coeffs := []int64{30, -23, -8, 1}
	for i := 0; i < b.N; i++ {
		if _, err := FindRootsInt64(coeffs, &Options{Precision: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindRootsHighDeg measures the user-facing entry point on the
// paper's §5 family at degree 40 (CharPoly01, µ = 16, fast profile) on
// one and two workers. Besides ns/op it reports the paper's two stages
// per solve and the time spent outside them:
// Result.Elapsed − Precompute − TreeSolve.
func BenchmarkFindRootsHighDeg(b *testing.B) {
	p := workload.CharPoly01(1, 40)
	coeffs := make([]*big.Int, p.Degree()+1)
	for i := range coeffs {
		coeffs[i] = p.Coeff(i).ToBig()
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", workers), func(b *testing.B) {
			opts := &Options{Precision: 16, Profile: ProfileFast, Workers: workers}
			b.ReportAllocs()
			var pre, tree, outside time.Duration
			for i := 0; i < b.N; i++ {
				res, err := FindRoots(coeffs, opts)
				if err != nil {
					b.Fatal(err)
				}
				pre += res.Precompute
				tree += res.TreeSolve
				outside += res.Elapsed - res.Precompute - res.TreeSolve
			}
			perSolve := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(b.N) }
			b.ReportMetric(perSolve(pre), "precompute-ms/op")
			b.ReportMetric(perSolve(tree), "treesolve-ms/op")
			b.ReportMetric(perSolve(outside), "outside-ms/op")
		})
	}
}
