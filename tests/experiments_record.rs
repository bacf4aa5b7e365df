//! EXPERIMENTS.md reads its tables off `results/*.csv`: this test parses
//! the Fig. 2 and Fig. 3a–d tables and Fig. 2's three "up to N pp" rows
//! and compares them with the committed CSVs — schedulable counts
//! exactly, weighted schedulability at the three decimals printed — so
//! the prose cannot drift from the files ci.sh regenerates.

use std::collections::HashMap;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One CSV row: `(series, x) → (schedulable, total, weighted)`.
type Points = HashMap<(String, String), (u64, u64, f64)>;

/// The rows of `results/<id>.csv`, keyed by series label and x-value
/// (normalised through `f64`, so `0.2` and `0.20` meet).
fn csv(id: &str) -> Points {
    let text = read(&format!("results/{id}.csv"));
    let mut lines = text.lines();
    assert_eq!(
        lines.next(),
        Some("experiment,series,x,schedulable,total,weighted"),
        "{id}.csv header"
    );
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            let [_, series, x, schedulable, total, weighted] = cells[..] else {
                panic!("{id}.csv: malformed row `{line}`");
            };
            (
                (series.to_string(), x_key(x)),
                (
                    schedulable.parse().unwrap(),
                    total.parse().unwrap(),
                    weighted.parse().unwrap(),
                ),
            )
        })
        .collect()
}

fn x_key(x: &str) -> String {
    let value: f64 = x
        .parse()
        .unwrap_or_else(|_| panic!("x-value `{x}` is not a number"));
    format!("{value}")
}

/// The cells of the first Markdown table after the line starting with
/// `heading` whose header row starts with `| first_column |`: the header
/// cells, then every body row.
fn table(doc: &str, heading: &str, first_column: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let after = doc
        .split_once(&format!("\n{heading}"))
        .unwrap_or_else(|| panic!("no `{heading}` in EXPERIMENTS.md"))
        .1;
    let mut lines = after
        .lines()
        .skip_while(|l| !l.starts_with(&format!("| {first_column} |")));
    let cells = |line: &str| -> Vec<String> {
        line.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    let header = cells(
        lines
            .next()
            .unwrap_or_else(|| panic!("no `{first_column}` table under `{heading}`")),
    );
    let rows = lines
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(cells)
        .collect();
    (header, rows)
}

const FIG2_PANELS: [(&str, &str); 3] = [("fig2a", "FP"), ("fig2b", "RR"), ("fig2c", "TDMA")];

#[test]
fn fig2_table_matches_the_csvs() {
    let doc = read("EXPERIMENTS.md");
    let (header, rows) = table(&doc, "## Fig. 2", "U/core");
    assert_eq!(
        header,
        [
            "U/core",
            "FP aware",
            "FP obl",
            "RR aware",
            "RR obl",
            "TDMA aware",
            "TDMA obl",
            "perfect"
        ]
    );
    assert!(!rows.is_empty());
    let panels: Vec<Points> = FIG2_PANELS.iter().map(|(id, _)| csv(id)).collect();
    for row in &rows {
        let x = x_key(&row[0]);
        let count = |panel: &Points, series: &str| {
            panel
                .get(&(series.to_string(), x.clone()))
                .unwrap_or_else(|| panic!("no `{series}` point at U = {x}"))
                .0
                .to_string()
        };
        for (k, ((_, bus), panel)) in FIG2_PANELS.iter().zip(&panels).enumerate() {
            let aware = count(panel, &format!("{bus} bus persistence-aware"));
            let oblivious = count(panel, &format!("{bus} bus oblivious"));
            assert_eq!(row[1 + 2 * k], aware, "{bus} aware at U = {x}");
            assert_eq!(row[2 + 2 * k], oblivious, "{bus} oblivious at U = {x}");
            assert_eq!(
                row[7],
                count(panel, "perfect bus"),
                "perfect at U = {x} ({bus} panel)"
            );
        }
    }
}

#[test]
fn fig2_gap_rows_match_the_csvs() {
    let doc = read("EXPERIMENTS.md");
    for ((id, bus), panel) in FIG2_PANELS.iter().zip(FIG2_PANELS.map(|(id, _)| csv(id))) {
        let prefix = format!("| {bus} gap \"up to");
        let line = doc
            .lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` row"));
        // `| FP gap "up to 70 pp" | up to **100 pp** (U = 0.30: 1000 vs 0) |`
        let measured = line.split('|').nth(2).unwrap();
        let numbers: Vec<&str> = measured
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .filter(|s| !s.is_empty() && *s != ".")
            .collect();
        let [pp, u, aware, oblivious] = numbers[..] else {
            panic!("{id}: cannot read `{measured}`");
        };
        let (pp, x) = (pp.parse::<f64>().unwrap(), x_key(u));
        let at = |series: &str| panel[&(format!("{bus} bus {series}"), x.clone())];
        let (aware_at, oblivious_at) = (at("persistence-aware"), at("oblivious"));
        assert_eq!(aware, aware_at.0.to_string(), "{bus} aware at U = {x}");
        assert_eq!(
            oblivious,
            oblivious_at.0.to_string(),
            "{bus} oblivious at U = {x}"
        );

        let gap = |aware: (u64, u64, f64), oblivious: (u64, u64, f64)| {
            (aware.0 as f64 - oblivious.0 as f64) * 100.0 / aware.1 as f64
        };
        let largest = panel
            .iter()
            .filter(|((series, _), _)| series == &format!("{bus} bus persistence-aware"))
            .map(|((_, x), &a)| gap(a, panel[&(format!("{bus} bus oblivious"), x.clone())]))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(
            gap(aware_at, oblivious_at),
            largest,
            "{bus}: U = {x} is not where the gap peaks"
        );
        assert!(
            (largest - pp).abs() < 0.05 + 1e-9,
            "{bus}: EXPERIMENTS.md says {pp} pp, the CSV peaks at {largest} pp"
        );
    }
}

#[test]
fn fig3_tables_match_the_csvs() {
    let doc = read("EXPERIMENTS.md");
    let panels = [
        ("fig3a", "## Fig. 3a", "cores"),
        ("fig3b", "## Fig. 3b", "d_mem (µs)"),
        ("fig3c", "## Fig. 3c", "cache sets"),
        ("fig3d", "## Fig. 3d", "s"),
    ];
    let series = [
        "FP aware",
        "FP oblivious",
        "RR aware",
        "RR oblivious",
        "TDMA aware",
        "TDMA oblivious",
    ];
    for (id, heading, first_column) in panels {
        let (header, rows) = table(&doc, heading, first_column);
        assert_eq!(
            header[1..],
            [
                "FP aware",
                "FP obl",
                "RR aware",
                "RR obl",
                "TDMA aware",
                "TDMA obl"
            ],
            "{id} header"
        );
        let points = csv(id);
        let xs = points.keys().filter(|(s, _)| s == series[0]).count();
        assert_eq!(rows.len(), xs, "{id}: one row per x-value");
        for row in &rows {
            let x = x_key(&row[0]);
            for (cell, label) in row[1..].iter().zip(series) {
                let weighted = points
                    .get(&(label.to_string(), x.clone()))
                    .unwrap_or_else(|| panic!("{id}: no `{label}` point at x = {x}"))
                    .2;
                assert_eq!(*cell, format!("{weighted:.3}"), "{id} {label} at x = {x}");
            }
        }
    }
}
