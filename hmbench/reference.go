package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// referenceJSON pins, per workload, the digest of every output the default
// seed produces: simulation results, figure CSV and daemon bodies. Any
// change to the simulated behaviour shows up as a failed check here.
//
//go:embed reference.json
var referenceJSON []byte

// referencePath is where -update-reference rewrites the file, relative to
// the repository root the benchmark runs from.
const referencePath = "hmbench/reference.json"

// checkReference compares r's digests with the pinned ones (default seed
// only), or rewrites them when o.update is set.
func checkReference(name string, o options, r *report) error {
	if o.seed != defaultSeed {
		return nil
	}
	ref := map[string]map[string]string{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("reading reference digests: %w", err)
	}
	if o.update {
		ref[name] = r.digests
		b, err := json.MarshalIndent(ref, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(referencePath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing reference digests: %w", err)
		}
		r.note("rewrote %d reference digests in %s", len(r.digests), referencePath)
		return nil
	}
	want := ref[name]
	if len(want) == 0 {
		r.fail("no reference digests for %s", name)
		return nil
	}
	for _, l := range sortedKeys(want) {
		got, ok := r.digests[l]
		switch {
		case !ok:
			r.fail("%s: output missing (reference digest %s)", l, want[l][:12])
		case got != want[l]:
			r.fail("%s: digest %s differs from reference %s", l, got[:12], want[l][:12])
		}
	}
	for _, l := range sortedKeys(r.digests) {
		if _, ok := want[l]; !ok {
			r.fail("%s: output has no reference digest", l)
		}
	}
	return nil
}
