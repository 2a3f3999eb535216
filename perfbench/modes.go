//go:build !perfbench_legacy

package main

import (
	"fmt"

	"repro/internal/core"
)

// modeBase returns the paper-baseline machine of a redundancy mode named
// explicitly, so a change to the mode registry's contents or order alters
// the benchmark only through a change to this directory.
func modeBase(name string) (core.Config, error) {
	mi, ok := core.ModeByName(name)
	if !ok {
		return core.Config{}, fmt.Errorf("mode %q is not registered", name)
	}
	return mi.Base(), nil
}
