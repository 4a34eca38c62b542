// Command schemagen generates a synthetic schema repository with
// planted ground truth and writes it as XML, or inspects an existing
// repository file.
//
// With -tenants N > 0 it generates a whole multi-tenant fleet instead
// (the same corpora the benchmark and cmd/matchd's tests synthesize
// in-process, via synth.GenerateTenants): -out names a directory receiving one
// repository XML per tenant, so load corpora can be produced offline
// once and inspected, versioned, or replayed without regenerating.
//
// Usage:
//
//	schemagen -out repo.xml [-seed N] [-schemas N] [-plant R] [-perturb S] [-personal name] [-sizedist uniform|zipf]
//	schemagen -out corpusdir -tenants 8 [-personals 3] [-seed N] [-schemas N] [-plant R] [-perturb S] [-sizedist uniform|zipf]
//	schemagen -inspect repo.xml
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/synth"
	"repro/internal/xmlschema"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "schemagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("schemagen", flag.ContinueOnError)
	out := fs.String("out", "", "write repository XML to this file")
	inspect := fs.String("inspect", "", "read and summarize a repository XML file")
	seed := fs.Uint64("seed", 1, "generator seed")
	schemas := fs.Int("schemas", 120, "number of schemas")
	plant := fs.Float64("plant", 0.5, "fraction of schemas with a planted copy")
	perturb := fs.Float64("perturb", 0.6, "perturbation strength in [0,1]")
	personal := fs.String("personal", "library", "personal schema: library, contact or order")
	sizedist := fs.String("sizedist", "uniform", "schema size distribution: uniform or zipf (heavy-tailed)")
	tenants := fs.Int("tenants", 0, "generate a fleet of N tenants (-out becomes a directory)")
	personals := fs.Int("personals", 3, "personal schemas per tenant (with -tenants)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inspect != "" {
		return doInspect(*inspect)
	}
	if *out == "" {
		return fmt.Errorf("either -out or -inspect is required")
	}
	if *tenants < 0 {
		return fmt.Errorf("negative tenant count %d", *tenants)
	}
	if *tenants > 0 {
		return doTenants(*out, *seed, *tenants, *personals, *schemas, *plant, *perturb, *sizedist)
	}
	p, err := personalSchema(*personal)
	if err != nil {
		return err
	}
	cfg := synth.DefaultConfig(*seed)
	cfg.NumSchemas = *schemas
	cfg.PlantRate = *plant
	cfg.PerturbStrength = *perturb
	cfg.SizeDist = *sizedist
	sc, err := synth.Generate(p, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := xmlschema.WriteRepository(f, sc.Repo); err != nil {
		return err
	}
	st := sc.Repo.ComputeStats()
	fmt.Printf("wrote %s: %d schemas, %d elements (mean size %.1f, max depth %d), |H| = %d\n",
		*out, st.Schemas, st.Elements, st.MeanSize, st.MaxDepth, sc.H())
	fmt.Println("truth mappings (personal element IDs → repository element IDs):")
	for i, m := range sc.Truth {
		if i >= 10 {
			fmt.Printf("  ... and %d more\n", sc.H()-10)
			break
		}
		fmt.Printf("  %s\n", m.Key())
	}
	return nil
}

// doTenants writes a multi-tenant load corpus: one repository XML per
// tenant under dir, generated by synth.GenerateTenants, so an offline
// corpus and an in-process fleet with the same seed and shape describe
// the same tenants.
func doTenants(dir string, seed uint64, tenants, personals, schemas int, plant, perturb float64, sizedist string) error {
	cfg := synth.DefaultConfig(0)
	cfg.NumSchemas = schemas
	cfg.PlantRate = plant
	cfg.PerturbStrength = perturb
	cfg.SizeDist = sizedist
	fleet, err := synth.GenerateTenants(seed, tenants, personals, cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	totalSchemas, totalElements, totalTruth := 0, 0, 0
	for _, tn := range fleet {
		path := filepath.Join(dir, tn.Name+".xml")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = xmlschema.WriteRepository(f, tn.Repo())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
		st := tn.Repo().ComputeStats()
		truths := 0
		for _, ms := range tn.Scenario.Truth {
			truths += len(ms)
		}
		totalSchemas += st.Schemas
		totalElements += st.Elements
		totalTruth += truths
		fmt.Printf("%s: %d schemas, %d elements, %d personals, |H| = %d\n",
			path, st.Schemas, st.Elements, len(tn.Personals()), truths)
	}
	fmt.Printf("wrote %d tenants to %s: %d schemas, %d elements, %d planted truths in total\n",
		len(fleet), dir, totalSchemas, totalElements, totalTruth)
	return nil
}

func doInspect(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rep, err := xmlschema.ReadRepository(f)
	if err != nil {
		return err
	}
	st := rep.ComputeStats()
	fmt.Printf("%s: %d schemas, %d elements\n", path, st.Schemas, st.Elements)
	fmt.Printf("mean schema size %.1f, max depth %d, leaf ratio %.2f\n",
		st.MeanSize, st.MaxDepth, st.LeafRatio)
	return nil
}

func personalSchema(name string) (*xmlschema.Schema, error) {
	switch name {
	case "library":
		return synth.PersonalLibrary(), nil
	case "contact":
		return synth.PersonalContact(), nil
	case "order":
		return synth.PersonalOrder(), nil
	default:
		return nil, fmt.Errorf("unknown personal schema %q (library, contact, order)", name)
	}
}
