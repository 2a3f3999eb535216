//go:build perfbench_legacy

package main

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// modeBase maps the headline's pinned modes onto the constructors that
// predate the mode registry. It exists only so the headline workload
// builds at older commits for the sensitivity check (see README.md);
// that build has no other workload and no traced run.
func modeBase(name string) (core.Config, error) {
	switch name {
	case "SIE":
		return core.BaseSIE(), nil
	case "DIE":
		return core.BaseDIE(), nil
	case "DIE-IRB":
		return core.BaseDIEIRB(), nil
	}
	return core.Config{}, fmt.Errorf("mode %q has no pre-registry constructor", name)
}

func traceGridWorkload(gridWorkload, *env) (*outcome, error) {
	return nil, errors.New("traced runs need the current tree; build without -tags perfbench_legacy")
}
