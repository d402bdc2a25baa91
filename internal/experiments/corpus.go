package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// CorpusOptions scales a corpus sweep: the MRF distribution over N
// procedurally generated scenarios (plus, optionally, registered
// scenarios selected by tags), the scenario-diversity axis the paper's
// nine hand-built scenarios cannot cover.
type CorpusOptions struct {
	// N is the number of scenarios to generate (default 20).
	N int
	// GenSeed drives the generator; the same seed reproduces the corpus.
	GenSeed int64
	// Families restricts generation; empty means every family.
	Families []scenario.Family
	// Tags additionally sweeps the default-registry scenarios carrying
	// all of these tags (e.g. "table1", "variant"). Empty adds none.
	Tags []string
	// Seeds is the number of runs per (scenario, rate) point (default 3;
	// paper protocol: 10).
	Seeds int
	// FPRGrid is the tested rate grid (default: the Table-1 grid).
	FPRGrid []float64
	// Record is the trace recording level of the sweep's generated
	// members. An MRF sweep reads nothing but collision outcomes, so
	// trace.LevelSummary (the `-exp corpus` CLI default) skips every
	// generated run's row materialization. The level is stamped onto
	// the generated specs themselves, so it survives any engine and
	// is part of each member's fingerprint; a store-attached engine
	// still upgrades archivable points to full.
	// Tag-selected registered members keep their own declared level.
	Record trace.Level
}

func (o CorpusOptions) withDefaults() CorpusOptions {
	if o.N <= 0 {
		o.N = 20
	}
	if o.Seeds <= 0 {
		o.Seeds = 3
	}
	if len(o.FPRGrid) == 0 {
		o.FPRGrid = metrics.DefaultFPRGrid()
	}
	return o
}

// CorpusRow is one scenario's minimum-required-FPR measurement.
type CorpusRow struct {
	Name        string
	Family      string // generator family, or "registered"
	EgoSpeedMPH float64
	MRF         metrics.MRF
}

// CorpusResult is a completed corpus sweep: per-scenario rows plus the
// MRF distribution (Table-1 label → scenario count).
type CorpusResult struct {
	Rows []CorpusRow
	Dist map[string]int
	// Runs counts the engine points the sweep scheduled, cache hits
	// included.
	Runs int
}

// CorpusSweep generates a scenario corpus and measures every member's
// minimum required FPR concurrently on eng. Generated specs are
// compiled on the fly (they do not touch the default registry), so
// sweeps of arbitrary size stay side-effect free; register specs
// explicitly to make a corpus addressable by name afterwards.
//
// On a store-attached engine an identically parameterized sweep
// recorded by an earlier process replays from disk instead of
// re-simulating. All sweep members — generated (unregistered) and
// registered alike — are spec-backed, so their store keys carry the
// spec content fingerprint (Scenario.Fingerprint): a generator change
// that alters a member's parameters misses cleanly instead of serving
// a stale trace recorded under the same name.
func CorpusSweep(ctx context.Context, eng *engine.Engine, opt CorpusOptions) (*CorpusResult, error) {
	opt = opt.withDefaults()

	type member struct {
		sc     scenario.Scenario
		family string
	}
	var members []member
	if len(opt.Tags) > 0 {
		for _, sc := range scenario.Default().List(opt.Tags...) {
			members = append(members, member{sc: sc, family: "registered"})
		}
	}
	// Sweep members are deliberately not registered (sweeps stay
	// side-effect free); the generator identity in the name prefix keeps
	// corpora from different seeds or family sets apart in the output.
	genOpt := scenario.GenOptions{
		Seed:     opt.GenSeed,
		Families: opt.Families,
		Prefix:   corpusPrefix(opt.GenSeed, opt.Families, opt.Record),
	}
	if err := genOpt.Validate(); err != nil {
		return nil, err
	}
	gen := scenario.NewGenerator(genOpt)
	for _, sp := range gen.Generate(opt.N) {
		fam := string(scenario.FamilyCutIn)
		for _, f := range scenario.Families() {
			if sp.HasTag(string(f)) {
				fam = string(f)
				break
			}
		}
		// The sweep only reads collision outcomes, so generated members
		// carry the sweep's recording level in their spec — it survives
		// whatever engine runs them.
		sp.Record = opt.Record
		members = append(members, member{sc: sp.Scenario(), family: fam})
	}

	res := &CorpusResult{Rows: make([]CorpusRow, len(members)), Dist: make(map[string]int)}
	err := forEachIndex(len(members), func(i int) error {
		m := members[i]
		mrf, err := metrics.FindMRF(ctx, eng, m.sc, opt.FPRGrid, opt.Seeds)
		res.Rows[i] = CorpusRow{
			Name:        m.sc.Name,
			Family:      m.family,
			EgoSpeedMPH: m.sc.EgoSpeedMPH,
			MRF:         mrf,
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		res.Dist[row.MRF.String()]++
		res.Runs += row.MRF.Runs
	}
	return res, nil
}

// corpusPrefix names a sweep's corpus by its literal generator
// identity: seed, recording level (when not full) and family set. The
// names are for reading the output; caches key on each member's spec
// fingerprint, which already differs wherever the content does.
func corpusPrefix(seed int64, families []scenario.Family, record trace.Level) string {
	prefix := fmt.Sprintf("gen-s%d", seed)
	if record != trace.LevelFull {
		prefix += "-" + record.String()
	}
	for _, f := range families {
		prefix += "-" + string(f)
	}
	return prefix
}

// distLabels orders distribution labels by the rate they encode ("<1"
// first, "+Inf" last).
func distLabels(dist map[string]int) []string {
	labels := make([]string, 0, len(dist))
	for l := range dist {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, k int) bool {
		rank := func(l string) float64 {
			switch l {
			case "<1":
				return -1
			case "+Inf":
				return 1e18
			default:
				var v float64
				fmt.Sscanf(l, "%g", &v)
				return v
			}
		}
		return rank(labels[i]) < rank(labels[k])
	})
	return labels
}

// WriteCorpus renders the sweep: per-scenario rows then the MRF
// distribution.
func WriteCorpus(w io.Writer, res *CorpusResult) {
	fmt.Fprintf(w, "%-28s %-12s %6s %6s\n", "Scenario", "Family", "mph", "MRF")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%-28s %-12s %6.0f %6s\n", row.Name, row.Family, row.EgoSpeedMPH, row.MRF.String())
	}
	fmt.Fprintf(w, "# MRF distribution over %d scenarios (%d engine points):", len(res.Rows), res.Runs)
	for _, l := range distLabels(res.Dist) {
		fmt.Fprintf(w, " %s×%d", l, res.Dist[l])
	}
	fmt.Fprintln(w)
}

// CorpusCSV writes the rows as CSV.
func CorpusCSV(w io.Writer, res *CorpusResult) error {
	if _, err := fmt.Fprintln(w, "scenario,family,ego_mph,mrf"); err != nil {
		return err
	}
	for _, row := range res.Rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%g,%s\n", row.Name, row.Family, row.EgoSpeedMPH, row.MRF.String()); err != nil {
			return err
		}
	}
	return nil
}
