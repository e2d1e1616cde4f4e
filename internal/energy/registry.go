package energy

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// DefaultTech is the technology the empty string resolves to: the
// paper's RDRAM Table 1 model, preserving the zero-value-means-paper-
// defaults contract of the public API.
const DefaultTech = "rdram"

var (
	regMu    sync.RWMutex
	builders = map[string]func() *Model{} // canonical name -> builder
	aliases  = map[string]string{}        // alias -> canonical name
)

// register adds a technology backend under a canonical name. The
// builder must return a fresh, valid Model on every call (Lookup hands
// each caller its own instance, so simulations never share mutable
// model state). Registering a duplicate name or an invalid model
// panics: both are programmer errors at init time.
func register(name string, build func() *Model) {
	name = normalizeTech(name)
	if name == "" {
		panic("energy: register with empty technology name")
	}
	m := build()
	if err := m.Validate(); err != nil {
		panic(fmt.Sprintf("energy: register(%q): %v", name, err))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := builders[name]; dup {
		panic(fmt.Sprintf("energy: register(%q): already registered", name))
	}
	if _, dup := aliases[name]; dup {
		panic(fmt.Sprintf("energy: register(%q): name already registered as an alias", name))
	}
	builders[name] = build
}

// registerAlias makes alias resolve to an already-registered canonical
// technology. Aliases do not appear in Techs.
func registerAlias(alias, canonical string) {
	alias, canonical = normalizeTech(alias), normalizeTech(canonical)
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := builders[canonical]; !ok {
		panic(fmt.Sprintf("energy: registerAlias(%q, %q): unknown canonical name", alias, canonical))
	}
	if _, dup := builders[alias]; dup {
		panic(fmt.Sprintf("energy: registerAlias(%q): already registered as a technology", alias))
	}
	if _, dup := aliases[alias]; dup {
		panic(fmt.Sprintf("energy: registerAlias(%q): already registered as an alias", alias))
	}
	aliases[alias] = canonical
}

// Lookup resolves a technology name to a fresh Model instance. The
// empty string means DefaultTech (the paper's RDRAM model). Names are
// trimmed and case-normalized. Unknown names error loudly, listing
// every registered technology.
func Lookup(name string) (*Model, error) {
	key := normalizeTech(name)
	if key == "" {
		key = DefaultTech
	}
	regMu.RLock()
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	build, ok := builders[key]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("energy: unknown memory technology %q (registered: %s)",
			name, strings.Join(Techs(), ", "))
	}
	return build(), nil
}

// Techs returns the sorted canonical names of every registered
// technology backend.
func Techs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func normalizeTech(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}
