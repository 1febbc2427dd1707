//! Which layer metric each phase scope's self time belongs to.
//!
//! Every scope the algorithm crates open lands in exactly one metric, so
//! the metrics partition the time spent inside scopes; the rest of the
//! solve wall is `trace.unattributed_frac`.

use crate::fold::LayerFold;

/// The layer metric a scope's self time is charged to.
pub fn metric_of(scope: &str) -> &'static str {
    match scope {
        "route:all-to-all" => "route.all_to_all_s",
        "route:broadcast-large" => "route.broadcast_large_s",
        "route:route" => "route.route_s",
        "route:sort" => "route.sort_s",
        "route:gather" => "route.gather_s",
        s if s.starts_with("route:") => "route.other_s",
        s if s.starts_with("lotker-phase-") => "lotker.phases_s",
        "phase2" => "core.phase2_s",
        "phase1:component-graph" | "exact-mst:component-graph" => "core.component_graph_s",
        "sq-mst:sketches" => "core.sq_mst_sketches_s",
        "exact-mst:sq-mst-light" => "core.sq_mst_light_s",
        "sq-mst:filter" => "kkt.filter_s",
        _ => "core.other_s",
    }
}

/// Every scope-fed metric with its mean seconds per solve over `folds`.
pub fn scope_layers(folds: &[LayerFold]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let n = folds.len().max(1) as f64;
    for f in folds {
        for (scope, ns) in &f.self_ns {
            let metric = metric_of(scope);
            let secs = *ns as f64 / 1e9 / n;
            match out.iter_mut().find(|(m, _)| *m == metric) {
                Some((_, v)) => *v += secs,
                None => out.push((metric, secs)),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::unit_of;

    #[test]
    fn every_scope_maps_to_a_known_metric() {
        for scope in [
            "phase1",
            "phase1:cc-mst",
            "phase1:component-graph",
            "phase2",
            "output-broadcast",
            "lotker-phase-1",
            "lotker-phase-3",
            "route:all-to-all",
            "route:broadcast-small",
            "route:route",
            "exact-mst:lotker",
            "sq-mst:filter",
            "sq-mst:collect",
        ] {
            assert!(unit_of(metric_of(scope)).is_some(), "{scope}");
        }
        assert_eq!(metric_of("lotker-phase-2"), "lotker.phases_s");
        assert_eq!(metric_of("route:broadcast-small"), "route.other_s");
        assert_eq!(metric_of("sq-mst:filter"), "kkt.filter_s");
    }

    #[test]
    fn scope_layers_average_over_solves() {
        let mut a = LayerFold::default();
        a.self_ns.insert("route:route".into(), 2_000_000_000);
        a.self_ns.insert("phase1".into(), 1_000_000_000);
        let mut b = LayerFold::default();
        b.self_ns.insert("route:route".into(), 4_000_000_000);
        let layers = scope_layers(&[a, b]);
        let get = |m: &str| layers.iter().find(|(n, _)| *n == m).unwrap().1;
        assert_eq!(get("route.route_s"), 3.0);
        assert_eq!(get("core.other_s"), 0.5);
    }
}
