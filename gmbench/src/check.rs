//! Output checks.  At the default seed every point's four figure metrics
//! must equal the committed `results/figNN.csv` cells, formatted the way
//! the CSV formats them; at any seed, repeated executions of a point must
//! agree exactly.

use gridmon_core::figures::{figures_of_set, PointSpec};
use gridmon_core::runcfg::{Measurement, METRICS, SET5_METRICS};
use std::path::Path;

/// The CSV cell text of one figure metric (`report::csv` writes `{:.6}`).
fn cell(v: f64) -> String {
    format!("{v:.6}")
}

/// The figure metric names of a set, in the order of its four figures.
fn metrics_of_set(set: u32) -> [&'static str; 4] {
    if set == 5 {
        SET5_METRICS
    } else {
        METRICS
    }
}

/// The four figure cells a measurement of a point in `set` produces.
pub fn figure_cells(set: u32, m: &Measurement) -> [String; 4] {
    metrics_of_set(set).map(|name| cell(m.metric(name)))
}

/// Look up the cell of series `label` at `x` in a figure CSV.  `Ok(None)`
/// is a blank cell: the series has no point at that x.
pub fn csv_cell(csv: &str, label: &str, x: u32) -> Result<Option<String>, String> {
    let mut lines = csv.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let column = header
        .split(',')
        .position(|h| h == label.replace(',', ";"))
        .ok_or_else(|| format!("no column {label:?}"))?;
    let want = x.to_string();
    let row = lines
        .find(|l| l.split(',').next() == Some(want.as_str()))
        .ok_or_else(|| format!("no row x={x}"))?;
    let cell = row
        .split(',')
        .nth(column)
        .ok_or_else(|| format!("row x={x} is short"))?;
    Ok((!cell.is_empty()).then(|| cell.to_string()))
}

/// The committed figure cells of one point, read from `results_dir`.
pub fn reference_cells(results_dir: &Path, p: &PointSpec) -> Result<[String; 4], String> {
    let figs = figures_of_set(p.series.set()).map_err(|e| e.to_string())?;
    let mut out: [String; 4] = Default::default();
    for (slot, fig) in out.iter_mut().zip(figs) {
        let path = results_dir.join(format!("fig{fig:02}.csv"));
        let csv = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        *slot = csv_cell(&csv, p.series.label(), p.x)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .ok_or_else(|| format!("{}: blank cell for {}", path.display(), p.key()))?;
    }
    Ok(out)
}

/// Compare the cells a run produced with the expected ones.
pub fn compare(got: &[String; 4], want: &[String; 4]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("figure cells {got:?}, expected {want:?}"))
    }
}

/// Exact identity of one execution: every measurement field plus the
/// engine's event count.  `Debug` prints floats exactly (and NaN equal
/// to NaN), so equal text means bit-identical runs.
pub fn identity(m: &Measurement, events: u64) -> String {
    format!("{m:?} events={events}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridmon_core::experiments::Set4Series;
    use gridmon_core::figures::SeriesId;

    const FIG17: &str = "x,MDS GIIS(query all),MDS GIIS (query part),Hawkeye Manager\n\
                         10,4.881667,5.355000,8.218333\n\
                         150,2.290000,,\n\
                         200,2.246667,3.955000,7.338333\n";

    #[test]
    fn finds_cells_by_label_and_x() {
        assert_eq!(
            csv_cell(FIG17, "MDS GIIS (query part)", 10)
                .unwrap()
                .as_deref(),
            Some("5.355000")
        );
        assert_eq!(
            csv_cell(FIG17, "Hawkeye Manager", 200).unwrap().as_deref(),
            Some("7.338333")
        );
    }

    #[test]
    fn blank_cells_are_none_and_missing_rows_are_errors() {
        assert_eq!(csv_cell(FIG17, "MDS GIIS (query part)", 150).unwrap(), None);
        assert_eq!(csv_cell(FIG17, "Hawkeye Manager", 150).unwrap(), None);
        assert!(csv_cell(FIG17, "MDS GIIS(query all)", 15).is_err());
        assert!(csv_cell(FIG17, "No Such Series", 10).is_err());
        assert!(csv_cell("", "MDS GIIS(query all)", 10).is_err());
    }

    #[test]
    fn labels_with_commas_match_the_csv_header() {
        let csv = "x,a;b\n1,0.500000\n";
        assert_eq!(
            csv_cell(csv, "a,b", 1).unwrap().as_deref(),
            Some("0.500000")
        );
    }

    #[test]
    fn committed_results_have_every_benchmarked_point() {
        let results = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../results"));
        for w in crate::catalog::WORKLOADS {
            if let crate::catalog::Plan::Serial(points) = w.plan {
                for &(series, x) in points {
                    let p = PointSpec { series, x };
                    reference_cells(results, &p).unwrap_or_else(|e| panic!("{}: {e}", p.key()));
                }
            }
        }
        // fig17's query-part column is blank at x=150: no such point.
        let p = PointSpec {
            series: SeriesId::S4(Set4Series::GiisQueryPart),
            x: 150,
        };
        assert!(reference_cells(results, &p).unwrap_err().contains("blank"));
    }

    #[test]
    fn cells_use_the_csv_format() {
        let m = Measurement {
            throughput: 2.5,
            response_time: 1.0 / 3.0,
            load1: 0.0,
            cpu_load: 99.9999996,
            availability: 1.0,
            ..Default::default()
        };
        assert_eq!(
            figure_cells(1, &m),
            ["2.500000", "0.333333", "0.000000", "100.000000"].map(String::from)
        );
        assert_eq!(figure_cells(5, &m)[0], "1.000000");
        assert_eq!(figure_cells(5, &m)[3], "2.500000");
    }
}
