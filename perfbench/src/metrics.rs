//! The metric names and units the benchmark reports, in report order.
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test keeps the two in step.

/// `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("commit_p50_us", "us"),
    ("commit_p99_us", "us"),
    ("commits_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("reads_per_s", "1/s"),
    ("op_ok_ratio", "ratio"),
    ("write_amp", "ratio"),
    ("space_amp", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// `--trace 1`, from the traced run itself.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("core.statement_us", "us"),
    ("core.commit_us", "us"),
    ("core.readonly_commit_us", "us"),
    ("core.unattributed_share", "ratio"),
    ("catalog.timestamps_per_op", "count"),
    ("catalog.commits_per_op", "count"),
    ("catalog.validate_us", "us"),
    ("catalog.sequencer_wait_us", "us"),
    ("catalog.commit_lock_hold_us", "us"),
    ("catalog.ww_conflicts_per_commit", "count"),
    ("wal.appends_per_op", "count"),
    ("wal.bytes_per_commit", "B"),
    ("wal.append_us", "us"),
    ("wal.checkpoints", "count"),
    ("wal.checkpoint_ms", "ms"),
    ("recovery.open_ms", "ms"),
    ("recovery.replayed_commits", "count"),
    ("lst.cache_hit_ratio", "ratio"),
    ("lst.replayed_manifests_per_op", "count"),
    ("lst.manifest_fetch_us", "us"),
    ("dcp.tasks_per_op", "count"),
    ("dcp.slot_wait_us", "us"),
    ("dcp.task_retries", "count"),
    ("dcp.morsels_per_read", "count"),
    ("dcp.morsel_steal_ratio", "ratio"),
    ("exec.files_scanned_per_read", "count"),
    ("exec.row_group_prune_ratio", "ratio"),
    ("exec.rows_in_per_row_out", "ratio"),
    ("exec.bytes_read_per_read", "B"),
    ("exec.prefetch_hit_ratio", "ratio"),
    ("columnar.decode_ns_per_row", "ns"),
    ("store.reads_per_op", "count"),
    ("store.writes_per_op", "count"),
    ("store.bytes_read_per_op", "B"),
    ("store.bytes_written_per_op", "B"),
    ("store.busy_us_per_op", "us"),
    ("store.cache_hit_ratio", "ratio"),
    ("sto.tick_ms", "ms"),
    ("sto.compactions", "count"),
    ("sto.files_per_table", "count"),
    ("tail.commit_p99_us", "us"),
    ("tail.checkpoint_share", "ratio"),
    ("tail.checkpoint_base_share", "ratio"),
    ("tail.after_sto_share", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// `--trace 1`, from the separate build with the counting allocator
/// (`--alloc`); `run.py` merges them into the traced run's result.
pub const ALLOC: &[(&str, &str)] = &[
    ("obs.allocs_per_op", "count"),
    ("obs.alloc_bytes_per_op", "B"),
];

/// Put `metrics` in the order of `spec`. Every name in `spec` must be
/// present once, with its unit, and nothing else.
pub fn ordered(
    metrics: Vec<(&'static str, f64, &'static str)>,
    spec: &[(&str, &str)],
) -> Vec<(&'static str, f64, &'static str)> {
    assert_eq!(
        metrics.len(),
        spec.len(),
        "metric count differs from its spec"
    );
    spec.iter()
        .map(|(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.0 == *name)
                .unwrap_or_else(|| panic!("metric {name} not reported"));
            assert_eq!(m.2, *unit, "unit of {name}");
            *m
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    /// The `(name, unit)` pairs of one top-level array of BENCHMARK.json,
    /// read by scanning its `"name": "..."` and `"unit": "..."` fields.
    fn section(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let rest = &json[start..];
        let end = rest.find(']').expect("section is an array");
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\""))?;
            let after = &obj[at + f.len() + 2..];
            let open = after.find('"')? + 1;
            let close = after[open..].find('"')? + open;
            Some(after[open..close].to_owned())
        };
        rest[..end]
            .split('{')
            .skip(1)
            .map(|obj| {
                (
                    field(obj, "name").expect("every entry has a name"),
                    field(obj, "unit"),
                )
            })
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_metric_name_is_well_formed() {
        let json = benchmark_json();
        for key in ["workloads", "end_to_end", "per_layer"] {
            for (name, _) in section(&json, key) {
                assert!(valid_name(&name), "{key}: bad name {name:?}");
            }
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("x/y"));
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let json = benchmark_json();
        let owned = |spec: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            spec.iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
        let per_layer: Vec<_> = PER_LAYER.iter().chain(ALLOC).copied().collect();
        assert_eq!(section(&json, "per_layer"), owned(&per_layer));
        let workloads: Vec<String> = section(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, ["oltp_mem", "olap_scan", "htap_cloud"]);
    }

    #[test]
    fn ordered_follows_the_spec() {
        let got = ordered(
            vec![("b", 2.0, "s"), ("a", 1.0, "ms")],
            &[("a", "ms"), ("b", "s")],
        );
        assert_eq!(got, vec![("a", 1.0, "ms"), ("b", 2.0, "s")]);
    }

    #[test]
    #[should_panic(expected = "unit of a")]
    fn ordered_rejects_a_wrong_unit() {
        ordered(vec![("a", 1.0, "s")], &[("a", "ms")]);
    }
}
