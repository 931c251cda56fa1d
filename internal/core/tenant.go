package core

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"sprout/internal/metrics"
	"sprout/internal/optimizer"
)

// SLO classes order tenants for the QoS plane's degradation decisions: under
// brownout, gold keeps hedging while others stop, and the deepest level sheds
// bronze storage-bound reads outright while silver only gives up its
// low-value files and gold is never shed.
const (
	ClassGold   = "gold"
	ClassSilver = "silver"
	ClassBronze = "bronze"
)

// DefaultTenant is the name unknown and unnamed tenants are accounted under.
// Requests that arrive with no tenant (or one no policy names) share this one
// state, so the per-tenant metric cardinality is bounded by configuration,
// not by whatever strings clients send.
const DefaultTenant = "default"

// TenantPolicy is one tenant's QoS contract with the controller.
type TenantPolicy struct {
	// Name is the tenant identifier carried by the wire protocol's Tenant
	// field and the WithTenant context key. Names are unique.
	Name string
	// Class is the SLO class: ClassGold, ClassSilver, or ClassBronze.
	// Empty defaults to silver — the seed's behaviour; any other value is
	// rejected.
	Class string
	// Weight is the tenant's fair share relative to the others: the
	// weighted-fair queues and the cache-budget split both use it. Values
	// < 1 are clamped to 1.
	Weight int
	// Files lists the file IDs this tenant owns. Ownership drives the
	// cache-budget split: the optimizer divides the cache across tenants in
	// proportion to Weight and plans each tenant's files within its share.
	// Files listed by no tenant belong to the default tenant; a file listed
	// twice, or out of range, is rejected.
	Files []int
}

func (p TenantPolicy) withDefaults() TenantPolicy {
	if p.Class == "" {
		p.Class = ClassSilver
	}
	if p.Weight < 1 {
		p.Weight = 1
	}
	return p
}

// tenantState is the per-tenant accounting the read plane updates: an SLO
// policy, a latency histogram, and read/shed counters.
// States are created at construction and never change, so the read path
// resolves one with a plain map lookup.
type tenantState struct {
	policy TenantPolicy
	hist   metrics.Histogram
	reads  atomic.Int64
	sheds  atomic.Int64
	// cacheShare is the tenant's slice of the cache budget in chunks (0 when
	// no budget split is configured). Written once at construction.
	cacheShare int
}

// tenantKey is the context key WithTenant stores the tenant name under.
type tenantKey struct{}

// WithTenant returns a context carrying the tenant name, read back by the
// controller's Read path via TenantFrom. The transport server stamps it from
// the request frame's Tenant field; in-process callers set it directly.
func WithTenant(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, tenantKey{}, name)
}

// TenantFrom extracts the tenant name from the context ("" when absent).
func TenantFrom(ctx context.Context) string {
	name, _ := ctx.Value(tenantKey{}).(string)
	return name
}

// validateTenants rejects policy sets the QoS plane would misread: an empty
// name (the policy would capture untenanted reads, which belong to
// DefaultTenant), an unknown class (it would run with silver semantics), two
// policies under one name (the later would replace the earlier), and a file
// ID that is out of range or listed twice (the budget split would drop it).
func validateTenants(policies []TenantPolicy, nFiles int) error {
	names := make(map[string]bool, len(policies))
	owner := make(map[int]string)
	for _, p := range policies {
		if p.Name == "" {
			return fmt.Errorf("core: tenant policy with an empty name (untenanted reads belong to %q)", DefaultTenant)
		}
		switch p.Class {
		case "", ClassGold, ClassSilver, ClassBronze:
		default:
			return fmt.Errorf("core: tenant %q: unknown class %q", p.Name, p.Class)
		}
		if names[p.Name] {
			return fmt.Errorf("core: tenant %q has two policies", p.Name)
		}
		names[p.Name] = true
		for _, f := range p.Files {
			if f < 0 || f >= nFiles {
				return fmt.Errorf("core: tenant %q: file %d out of range [0, %d)", p.Name, f, nFiles)
			}
			if o, ok := owner[f]; ok {
				return fmt.Errorf("core: file %d listed by tenants %q and %q", f, o, p.Name)
			}
			owner[f] = p.Name
		}
	}
	return nil
}

// buildTenants materialises the per-tenant states from the serve options.
// Returns nil maps when no tenants are configured — the read plane then skips
// tenant accounting entirely.
func buildTenants(policies []TenantPolicy) (map[string]*tenantState, *tenantState) {
	if len(policies) == 0 {
		return nil, nil
	}
	states := make(map[string]*tenantState, len(policies)+1)
	var def *tenantState
	for _, p := range policies {
		p = p.withDefaults()
		ts := &tenantState{policy: p}
		states[p.Name] = ts
		if p.Name == DefaultTenant {
			def = ts
		}
	}
	if def == nil {
		def = &tenantState{policy: TenantPolicy{Name: DefaultTenant}.withDefaults()}
		states[DefaultTenant] = def
	}
	return states, def
}

// tenantOf resolves the state for a tenant name; unknown and unnamed tenants
// share the default state. Nil when tenants are not configured.
func (c *Controller) tenantOf(name string) *tenantState {
	if c.tenants == nil {
		return nil
	}
	if ts, ok := c.tenants[name]; ok {
		return ts
	}
	return c.tenantDefault
}

// class returns the SLO class, defaulting to silver semantics for the
// untenanted case so a controller without tenant policies behaves exactly
// like the seed.
func (ts *tenantState) class() string {
	if ts == nil {
		return ClassSilver
	}
	return ts.policy.Class
}

// shedUnder reports whether a storage-bound read of fileID by this tenant is
// shed at the deepest brownout level. The shed order is the SLO ladder:
// bronze absorbs shedding first (every storage-bound read), silver gives up
// only the files the plan values least, gold is never shed.
func (ts *tenantState) shedUnder(ep *epoch, fileID int) bool {
	switch ts.class() {
	case ClassGold:
		return false
	case ClassBronze:
		return true
	default:
		return fileID < len(ep.lowValue) && ep.lowValue[fileID]
	}
}

// TenantSnapshot is one tenant's QoS accounting.
type TenantSnapshot struct {
	Policy TenantPolicy
	// Reads counts served reads; Sheds counts reads rejected with
	// ErrSaturated under brownout.
	Reads int64
	Sheds int64
	// Latency summarises the tenant's served-read latency distribution.
	Latency metrics.LatencySnapshot
	// CacheShare is the tenant's slice of the cache budget in chunks (0 when
	// no budget split is configured).
	CacheShare int
}

// TenantStats returns per-tenant QoS snapshots keyed by tenant name (the
// default tenant under DefaultTenant). Nil when tenants are not configured.
func (c *Controller) TenantStats() map[string]TenantSnapshot {
	if c.tenants == nil {
		return nil
	}
	out := make(map[string]TenantSnapshot, len(c.tenants))
	for name, ts := range c.tenants {
		out[name] = TenantSnapshot{
			Policy:     ts.policy,
			Reads:      ts.reads.Load(),
			Sheds:      ts.sheds.Load(),
			Latency:    ts.hist.Buckets().Snapshot(),
			CacheShare: ts.cacheShare,
		}
	}
	return out
}

// TenantLatencyBuckets returns the raw per-tenant read-latency buckets for
// the metrics exporter. Nil when tenants are not configured.
func (c *Controller) TenantLatencyBuckets() map[string]metrics.HistogramBuckets {
	if c.tenants == nil {
		return nil
	}
	out := make(map[string]metrics.HistogramBuckets, len(c.tenants))
	for name, ts := range c.tenants {
		out[name] = ts.hist.Buckets()
	}
	return out
}

// tenantWeights extracts the scheduler weight map for the WFQ fill queue.
func tenantWeights(policies []TenantPolicy) map[string]int {
	if len(policies) == 0 {
		return nil
	}
	w := make(map[string]int, len(policies))
	for _, p := range policies {
		p = p.withDefaults()
		w[p.Name] = p.Weight
	}
	return w
}

// tenantShares derives the optimizer's cache-budget partition from the
// tenant policies: every file listed by a policy belongs to that tenant,
// everything else to the default tenant — folded into the share of a policy
// named DefaultTenant when there is one, so one tenant is never planned as
// two slices. Returns nil (no split) when no policy lists files — the budget
// then stays one shared pool. The policies have passed validateTenants, so
// every listed file is in range and listed once.
func tenantShares(policies []TenantPolicy, nFiles int) ([]optimizer.TenantShare, []string) {
	owned := false
	for _, p := range policies {
		if len(p.Files) > 0 {
			owned = true
			break
		}
	}
	if !owned {
		return nil, nil
	}
	listed := make([]bool, nFiles)
	shares := make([]optimizer.TenantShare, 0, len(policies)+1)
	names := make([]string, 0, len(policies)+1)
	def := optimizer.TenantShare{Weight: 1}
	for _, p := range policies {
		p = p.withDefaults()
		for _, f := range p.Files {
			listed[f] = true
		}
		switch {
		case p.Name == DefaultTenant:
			def = optimizer.TenantShare{Weight: p.Weight, Files: slices.Clone(p.Files)}
		case len(p.Files) > 0:
			shares = append(shares, optimizer.TenantShare{Weight: p.Weight, Files: slices.Clone(p.Files)})
			names = append(names, p.Name)
		}
	}
	for f, l := range listed {
		if !l {
			def.Files = append(def.Files, f)
		}
	}
	if len(def.Files) > 0 {
		shares = append(shares, def)
		names = append(names, DefaultTenant)
	}
	return shares, names
}
