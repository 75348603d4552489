package trace

import "testing"

func TestRoutingStrings(t *testing.T) {
	want := map[Routing]string{
		RouteBlock:     "block-routed",
		RouteBroadcast: "broadcast",
		RouteSingle:    "single-shard",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Routing(%d) = %q, want %q", r, r.String(), s)
		}
	}
}

func TestKindCategoryRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindRace, KindDeadlock, KindUseAfterFree, KindInvalidFree, KindHighLevel} {
		if k.Category() == "" || k.String() == "" {
			t.Errorf("Kind %d missing string forms", k)
		}
	}
}
