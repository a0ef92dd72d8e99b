package main

import (
	"bytes"
	"encoding/json"
	"math/big"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"realroots"
	"realroots/internal/charpoly"
	"realroots/internal/oracle/bigref"
	"realroots/internal/workload"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests compare
// against the program.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	same := func(kind string, file []struct{ Name, Unit string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestTinyWorkloads runs every workload at tiny size, untraced and
// traced, and checks the result line's shape and that every metric
// prints by name with its unit.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--tiny", "--root", "..", "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range raw {
					keys = append(keys, k)
				}
				if len(keys) != 4 || raw["correct"] == nil || raw["attempted"] == nil || raw["failed"] == nil || raw["metrics"] == nil {
					t.Fatalf("result keys %v, want correct, attempted, failed, metrics", keys)
				}
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !strings.Contains(stdout.String(), "\n"+padName(d.name)) || !strings.Contains(stdout.String(), " "+d.unit+"\n") {
						t.Errorf("metric %s with unit %s not printed", d.name, d.unit)
					}
				}
			})
		}
	}
}

func padName(n string) string { return n + strings.Repeat(" ", max(1, 37-len(n))) }

func TestCheckerRejectsWrongAnswers(t *testing.T) {
	p := workload.CharPoly01(7, 9)
	coeffs := bigCoeffs(p)
	const mu = 24
	res, err := realroots.FindRoots(coeffs, &realroots.Options{Precision: mu})
	if err != nil {
		t.Fatal(err)
	}
	good := libAnswer(res.Roots)
	if err := checkAnswer(coeffs, mu, good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	ref, err := bigref.FindRoots(coeffs, mu)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ref {
		if r.Cmp(good[i].value) != 0 {
			t.Fatalf("root %d: solver %s, bigref.FindRoots %s", i, good[i].value.RatString(), r.RatString())
		}
	}

	step := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), mu))
	mutate := func(f func(a []answerRoot) []answerRoot) []answerRoot {
		a := make([]answerRoot, len(good))
		for i, r := range good {
			a[i] = answerRoot{value: new(big.Rat).Set(r.value), mult: r.mult}
		}
		return f(a)
	}
	for name, bad := range map[string][]answerRoot{
		"up one step":   mutate(func(a []answerRoot) []answerRoot { a[3].value.Add(a[3].value, step); return a }),
		"down one step": mutate(func(a []answerRoot) []answerRoot { a[3].value.Sub(a[3].value, step); return a }),
		"off the grid": mutate(func(a []answerRoot) []answerRoot {
			a[3].value.Add(a[3].value, new(big.Rat).Quo(step, big.NewRat(2, 1)))
			return a
		}),
		"dropped":      mutate(func(a []answerRoot) []answerRoot { return a[1:] }),
		"duplicated":   mutate(func(a []answerRoot) []answerRoot { return append(a[:2], a[1:len(a)-1]...) }),
		"multiplicity": mutate(func(a []answerRoot) []answerRoot { a[0].mult = 2; return a }),
	} {
		if err := checkAnswer(coeffs, mu, bad); err == nil {
			t.Errorf("%s: wrong answer accepted", name)
		}
	}

	// Repeated roots: exact multiplicities are checked too.
	q := workload.WithMultiplicities(5, 4, 6, 3)
	qc := bigCoeffs(q)
	rq, err := realroots.FindRoots(qc, &realroots.Options{Precision: 16})
	if err != nil {
		t.Fatal(err)
	}
	ans := libAnswer(rq.Roots)
	if err := checkAnswer(qc, 16, ans); err != nil {
		t.Fatalf("correct repeated-root answer rejected: %v", err)
	}
	for i := range ans {
		if ans[i].mult > 1 {
			ans[i].mult--
			ans[(i+1)%len(ans)].mult++
			break
		}
	}
	if err := checkAnswer(qc, 16, ans); err == nil {
		t.Error("swapped multiplicities accepted")
	}
}

// TestDifferingAnswerFailsRun runs a workload whose third call answers
// an input with other roots than its first two did. The first answer
// passes the check, so only the comparison of later answers with it
// can catch the wrong one: the run must print "correct": false and
// exit 1, naming the call.
func TestDifferingAnswerFailsRun(t *testing.T) {
	in := &input{degree: 9, mu: 24, form: "poly", seed: 7}
	in.p = workload.CharPoly01(in.seed, in.degree)
	in.coeffs = bigCoeffs(in.p)
	res, err := realroots.FindRoots(in.coeffs, &realroots.Options{Precision: in.mu})
	if err != nil {
		t.Fatal(err)
	}
	good, bad := libAnswer(res.Roots), libAnswer(res.Roots)
	bad[3].value = new(big.Rat).Add(bad[3].value, big.NewRat(1, 1<<24))
	workloads["differing"] = func(cfg config) (*report, error) {
		m := meter{wall: time.Second, cpu: time.Second}
		calls := []call{{in: in, pass: 0, ms: 1, roots: good}, {in: in, pass: 1, ms: 1, roots: good}, {in: in, pass: 2, ms: 1, roots: bad}}
		shareAnswers(make([][]answerRoot, 1), calls) // as the measured phase does
		rep, _ := assemble([]*input{in}, calls, &m)
		rep.metrics["setup_s"], rep.metrics["bitops_per_solve"], rep.metrics["retained_heap_mb"] = 1, 1, 1
		return rep, nil
	}
	defer delete(workloads, "differing")

	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "differing", "--seconds", "1", "--root", "..", "--out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res1 resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res1); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if res1.Correct || res1.Attempted != 3 || res1.Failed != 1 {
		t.Errorf("result %+v, want correct false, 3 attempted, 1 failed", res1)
	}
	if !strings.Contains(stderr.String(), "n=9 mu=24 (seed 7), pass 2: the answer differs") {
		t.Errorf("stderr does not name the differing call:\n%s", stderr.String())
	}
}

func TestRefCharPolyMatchesCharPoly(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rows := workload.SymmetricRows01(seed, 7+int(seed))
		want := bigCoeffs(workload.CharPoly01(seed, 7+int(seed)))
		got := refCharPoly(rows)
		if len(got) != len(want) {
			t.Fatalf("seed %d: degree %d, want %d", seed, len(got)-1, len(want)-1)
		}
		for i := range got {
			if got[i].Cmp(want[i]) != 0 {
				t.Fatalf("seed %d: coefficient %d is %s, want %s", seed, i, got[i], want[i])
			}
		}
	}
	m, _ := charpoly.FromRows([][]int64{{2, 1}, {1, 2}})
	if got, want := refCharPoly([][]int64{{2, 1}, {1, 2}}), bigCoeffs(charpoly.CharPoly(m)); !reflect.DeepEqual(strs(got), strs(want)) {
		t.Errorf("2x2: %v, want %v", strs(got), strs(want))
	}
}

func strs(c []*big.Int) []string {
	out := make([]string, len(c))
	for i, v := range c {
		out[i] = v.String()
	}
	return out
}

// TestSeedDeterminesInputs checks that the same seed gives
// byte-identical inputs and call orders and a different seed different
// ones, for the library plans and the rootd request bodies.
func TestSeedDeterminesInputs(t *testing.T) {
	libBytes := func(s libSpec, seed int64) string {
		pl := s.plan(seed, 3)
		var b strings.Builder
		for _, pass := range append([][]*input{pl.warmup}, pl.passes...) {
			for _, in := range pass {
				b.WriteString(in.cell() + ":" + strings.Join(strs(in.coeffs), ",") + ";")
			}
			b.WriteString("|")
		}
		return b.String()
	}
	rootdBytes := func(seed int64) string {
		var b strings.Builder
		for set := int64(-1); set < 2; set++ {
			reqs, _, err := mixedSpec(true).requests(seed, set, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				b.Write(r.body)
			}
		}
		return b.String()
	}
	gens := map[string]func(seed int64) string{
		"lib-highdeg": func(seed int64) string { return libBytes(highDeg(true), seed) },
		"rootd-mixed": rootdBytes,
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if a != b {
			t.Errorf("%s: seed 1 gave different inputs on two calls", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}
