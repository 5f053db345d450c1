package main

import (
	"strings"
	"testing"

	"strom/internal/experiments"
)

// An unknown -scenario value is rejected with every valid name listed.
func TestLookupScenarioUnknownListsNames(t *testing.T) {
	_, err := lookupScenario("bogus")
	if err == nil {
		t.Fatal("lookupScenario(\"bogus\") succeeded")
	}
	for _, sc := range experiments.Scenarios() {
		if !strings.Contains(err.Error(), sc.Name) {
			t.Errorf("error %q does not list scenario %q", err, sc.Name)
		}
	}
}

// Every scenario resolves by name, and the suite it runs when no
// experiment names are given names only registered generators.
func TestScenarioSuitesResolve(t *testing.T) {
	registered := make(map[string]bool)
	for _, g := range allGenerators() {
		registered[g.Name] = true
	}
	for _, sc := range experiments.Scenarios() {
		got, err := lookupScenario(sc.Name)
		if err != nil || got.Name != sc.Name {
			t.Errorf("lookupScenario(%q) = %q, %v", sc.Name, got.Name, err)
		}
		if sc.Export == nil {
			t.Errorf("scenario %q has no export", sc.Name)
		}
		for _, name := range sc.Suite {
			if !registered[name] {
				t.Errorf("scenario %q suite names unregistered generator %q", sc.Name, name)
			}
		}
	}
	if def, err := lookupScenario("clean"); err != nil || def.Suite != nil {
		t.Errorf("default scenario: %+v, %v; want the paper suite", def.Name, err)
	}
}
