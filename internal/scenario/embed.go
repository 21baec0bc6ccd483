package scenario

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

//go:embed scenarios/*.yaml
var scenarioFS embed.FS

// Load decodes a committed scenario by name ("e16_resolve") or file name
// ("e16_resolve.yaml").
func Load(name string) (*Scenario, error) {
	data, err := Raw(name)
	if err != nil {
		return nil, fmt.Errorf("no committed scenario %q (have %s)", name, strings.Join(List(), ", "))
	}
	return Decode(data)
}

// List names the committed scenarios.
func List() []string {
	entries, err := scenarioFS.ReadDir("scenarios")
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".yaml"))
	}
	sort.Strings(names)
	return names
}

// Raw returns a committed scenario's bytes (golden-file tests).
func Raw(name string) ([]byte, error) {
	if !strings.HasSuffix(name, ".yaml") {
		name += ".yaml"
	}
	return scenarioFS.ReadFile("scenarios/" + name)
}
