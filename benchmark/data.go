package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"rex"
	"rex/internal/kb"
	"rex/internal/kbgen"
)

// The dataset is fixed: the knowledge base and the pair population are
// generated from datasetSeed, not from -seed. Query cost on one KB
// spans three orders of magnitude between pairs (0.4 ms to 3 s on the
// medium preset), so a population re-sampled per seed moves every
// latency metric by 2.5× between seeds — the benchmark would measure
// the draw, not the program. -seed drives everything a caller varies
// against a fixed KB: pass order, the Zipf draws and the delta stream.
const (
	datasetSeed    = 42
	pairsPerBucket = 11
	zipfS          = 1.1
)

// dataset is the generated input of one run.
type dataset struct {
	g      *kb.Graph // the generated graph: names, degrees, pair sampling
	kbPath string    // its binary snapshot on disk
	pairs  []rex.Pair
	bucket []string // connectedness bucket of pairs[i]
	// hot is the population of the workloads that time cache hits and
	// reads beside writes: the low and medium buckets. A hit costs the
	// same whatever the pair, and the high bucket is 2.9 s of the 3.4 s
	// an uncached pass over all 33 pairs takes — time those workloads
	// would spend in untimed warm passes.
	hot   []rex.Pair
	light rex.Pair // a low-bucket pair: the first query after a restart
}

// buildDataset generates the KB, saves it and samples the population.
// The population interleaves the buckets (low, medium, high, low, ...)
// so the Zipf head covers all three.
func buildDataset(preset, dir string) (*dataset, error) {
	opt, err := kbgen.PresetOptions(preset, datasetSeed)
	if err != nil {
		return nil, err
	}
	g := kbgen.Generate(opt)
	ds := &dataset{g: g, kbPath: filepath.Join(dir, "kb.bin")}
	if err := g.SaveBinary(ds.kbPath); err != nil {
		return nil, err
	}
	sampled := kbgen.SamplePairs(g, kbgen.PairOptions{PerBucket: pairsPerBucket, Seed: datasetSeed + 1})
	by := map[kb.ConnBucket][]kbgen.Pair{}
	for _, p := range sampled {
		by[p.Bucket] = append(by[p.Bucket], p)
	}
	for i := 0; i < pairsPerBucket; i++ {
		for _, b := range []kb.ConnBucket{kb.ConnLow, kb.ConnMedium, kb.ConnHigh} {
			if i < len(by[b]) {
				p := by[b][i]
				pair := rex.Pair{Start: g.NodeName(p.Start), End: g.NodeName(p.End)}
				ds.pairs = append(ds.pairs, pair)
				ds.bucket = append(ds.bucket, b.String())
				if b != kb.ConnHigh {
					ds.hot = append(ds.hot, pair)
				}
			}
		}
	}
	if len(ds.pairs) < 3 {
		return nil, fmt.Errorf("only %d pairs sampled from preset %s", len(ds.pairs), preset)
	}
	ds.light = ds.pairs[0]
	return ds, nil
}

func pairKey(p rex.Pair) string { return p.Start + "|" + p.End }

// zipfOrder draws n population indices Zipf(s)-distributed over the
// population order.
func zipfOrder(rng *rand.Rand, population, n int) []int {
	z := rand.NewZipf(rng, zipfS, 1, uint64(population-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// clientRNGs gives every client its own stream of draws from -seed.
func (r *run) clientRNGs() []*rand.Rand {
	rngs := make([]*rand.Rand, r.clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(r.opt.seed*1000 + int64(c)))
	}
	return rngs
}

// zipfLists draws one block of n requests, dealt evenly to the clients.
func zipfLists(rngs []*rand.Rand, population, n int) [][]int {
	lists := make([][]int, len(rngs))
	for c, rng := range rngs {
		lists[c] = zipfOrder(rng, population, n/len(rngs))
	}
	return lists
}

// answer is what every path (in-process, serve, router) reduces a
// result to before it is digested.
type answer struct {
	Patterns  []string
	Scores    [][]float64
	Truncated bool
}

func answerOf(res *rex.Result) answer {
	a := answer{Truncated: res.Truncated}
	for _, e := range res.Explanations {
		a.Patterns = append(a.Patterns, e.Pattern)
		a.Scores = append(a.Scores, e.Score)
	}
	return a
}

// digest reduces an answer to ranked pattern keys + scores + truncated
// flag. Scores are printed to 10 significant digits so a last-bit
// difference between CPUs does not read as a wrong answer.
func (a answer) digest() string {
	h := sha256.New()
	for i, p := range a.Patterns {
		h.Write([]byte(p)) //nolint:errcheck // hash writes cannot fail
		for _, s := range a.Scores[i] {
			h.Write([]byte{'\t'})                                //nolint:errcheck
			h.Write([]byte(strconv.FormatFloat(s, 'g', 10, 64))) //nolint:errcheck
		}
		h.Write([]byte{'\n'}) //nolint:errcheck
	}
	if a.Truncated {
		h.Write([]byte("truncated")) //nolint:errcheck
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// expectedFile is benchmark/expected/<workload>.json.
type expectedFile struct {
	DatasetSeed int64  `json:"dataset_seed"`
	Preset      string `json:"preset"`
	// Fingerprint and Answers pin the generated KB and every population
	// pair's answer on it (generation 1). The dataset is fixed, so they
	// hold for every -seed.
	Fingerprint string            `json:"fingerprint"`
	Answers     map[string]string `json:"answers"`
	// Final pins the state after the write phase. The delta stream comes
	// from -seed and its length from the counts, so it is checked only
	// for the seed and delta count recorded here.
	Final *expectedFinal `json:"final,omitempty"`
}

type expectedFinal struct {
	Seed        int64  `json:"seed"`
	Deltas      int    `json:"deltas"`
	Generation  uint64 `json:"generation"`
	Fingerprint string `json:"fingerprint"`
}

// pins reports whether the committed answers were recorded on the
// dataset a run with this preset generates.
func (e *expectedFile) pins(preset string) bool {
	return e.Preset == preset && e.DatasetSeed == datasetSeed
}

func expectedPath(workload string) string {
	return filepath.Join(benchDir(), "expected", workload+".json")
}

func loadExpected(workload string) (*expectedFile, error) {
	b, err := os.ReadFile(expectedPath(workload))
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(workload), err)
	}
	return &e, nil
}

func (e *expectedFile) save(workload string) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(expectedPath(workload)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath(workload), append(b, '\n'), 0o644)
}

// checker is the correctness gate. Every answer is digested and must
// (a) equal the committed digest when it was computed on the generated
// KB (generation 1), and (b) equal every other answer for the same pair
// at the same generation, whichever client and path produced it.
type checker struct {
	mu       sync.Mutex
	expected map[string]string // pairKey → digest on generation 1; nil = recording
	baseGen  uint64
	seen     map[string]string // pairKey@gen → digest
	recorded map[string]string // generation-1 digests seen, for -update-expected
	checked  int
	wrong    int
	firstBad string
}

func newChecker(expected map[string]string) *checker {
	return &checker{expected: expected, baseGen: 1, seen: map[string]string{}, recorded: map[string]string{}}
}

func (c *checker) check(p rex.Pair, gen uint64, a answer) {
	d := a.digest()
	k := pairKey(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked++
	bad := ""
	if gen == c.baseGen {
		c.recorded[k] = d
		if c.expected != nil {
			if want, ok := c.expected[k]; !ok || want != d {
				bad = fmt.Sprintf("%s at generation %d: digest %s, expected %q", k, gen, d, want)
			}
		}
	}
	gk := k + "@" + strconv.FormatUint(gen, 10)
	if prev, ok := c.seen[gk]; !ok {
		c.seen[gk] = d
	} else if prev != d && bad == "" {
		bad = fmt.Sprintf("%s at generation %d: digest %s, an earlier answer had %s", k, gen, d, prev)
	}
	if bad != "" {
		c.wrong++
		if c.firstBad == "" {
			c.firstBad = bad
		}
	}
}

// fail records a correctness failure that is not a query answer (a
// fingerprint or generation that does not match).
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wrong++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf(format, args...)
	}
}

// deltaStream pre-generates the write-side input: n deltas of ops
// records each, in the delta wire format. Each delta hangs a chain of
// entities off one low-degree anchor of the generated graph (an
// extraction increment is local) and deletes the oldest edges earlier
// deltas added, so the edge count stays within a few percent of the
// start; entity names cycle through a ring, so the node count stops
// growing once the ring is full; every 50th delta registers a new label
// and moves the stream onto it.
func deltaStream(g *kb.Graph, seed int64, n, ops int) []string {
	const (
		liveEdges = 2000 // ingest edges kept alive before deletes start
		ringSize  = 8000 // entity names in rotation (> 2×liveEdges: a reused name has no live edge)
		perLabel  = 50
	)
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ from, to, label string }
	var fifo []edge
	slot := 0
	out := make([]string, n)
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.Reset()
		label := "ingest" + strconv.Itoa(i/perLabel)
		used := 0
		if i%perLabel == 0 {
			fmt.Fprintf(&sb, "label\t%s\tU\n", label)
			used++
		}
		prev := g.NodeName(lowDegreeAnchor(g, rng))
		for used < ops {
			if len(fifo) > liveEdges {
				e := fifo[0]
				fifo = fifo[1:]
				fmt.Fprintf(&sb, "deledge\t%s\t%s\t%s\n", e.from, e.to, e.label)
				used++
				continue
			}
			if used+2 > ops {
				break
			}
			name := "ing" + strconv.Itoa(slot%ringSize)
			slot++
			fmt.Fprintf(&sb, "node\t%s\tconcept\nedge\t%s\t%s\t%s\n", name, prev, name, label)
			fifo = append(fifo, edge{prev, name, label})
			prev = name
			used += 2
		}
		out[i] = sb.String()
	}
	return out
}

// lowDegreeAnchor picks an existing node of small degree: a hub anchor
// would put half the graph inside the delta's invalidation ball, which
// is not the shape of an extraction increment.
func lowDegreeAnchor(g *kb.Graph, rng *rand.Rand) kb.NodeID {
	best := kb.NodeID(rng.Intn(g.NumNodes()))
	for try := 0; try < 16 && g.Degree(best) > 8; try++ {
		if id := kb.NodeID(rng.Intn(g.NumNodes())); g.Degree(id) < g.Degree(best) {
			best = id
		}
	}
	return best
}
