//! The qualitative comparison of predictable-coherence work against the
//! four MCS challenges (the paper's Table I).

use core::fmt;

/// How a body of work addresses one challenge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// Not addressed.
    No,
    /// Partially addressed (e.g. only two criticality levels).
    Limited,
    /// Fully addressed.
    Yes,
    /// Addressed and optimized against explicit requirements.
    Optimized,
}

impl fmt::Display for Support {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Support::No => "No",
            Support::Limited => "Limited",
            Support::Yes => "Yes",
            Support::Optimized => "Optimized",
        })
    }
}

/// One row of Table I.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableOneRow {
    /// The work category (citation keys as printed in the paper).
    pub works: &'static str,
    /// Challenge 1: heterogeneity (multiple protocols on one platform).
    pub heterogeneity: Support,
    /// Challenge 2: criticality-awareness (arbitrary level counts).
    pub criticality: Support,
    /// Challenge 3: requirement-awareness.
    pub requirements: Support,
    /// Challenge 4: mode switching.
    pub mode_switching: Support,
}

/// The rows of Table I, in the paper's order.
#[must_use]
fn table_one() -> Vec<TableOneRow> {
    use Support::{Limited, No, Optimized, Yes};
    vec![
        TableOneRow {
            works: "[10]-[12], [15], [21], [22], [24]",
            heterogeneity: No,
            criticality: No,
            requirements: No,
            mode_switching: No,
        },
        TableOneRow {
            works: "[13], [16] (CARP, PENDULUM)",
            heterogeneity: No,
            criticality: Limited,
            requirements: No,
            mode_switching: No,
        },
        TableOneRow {
            works: "[17] (PENDULUM*)",
            heterogeneity: No,
            criticality: No,
            requirements: Yes,
            mode_switching: No,
        },
        TableOneRow {
            works: "CoHoRT",
            heterogeneity: Yes,
            criticality: Yes,
            requirements: Optimized,
            mode_switching: Yes,
        },
    ]
}

/// Renders Table I as an aligned text table (the `table1` bench target).
#[must_use]
pub fn render_table_one() -> String {
    use std::fmt::Write;

    let rows = table_one();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<36} {:>14} {:>12} {:>13} {:>15}",
        "Work Categories", "Heterogeneity", "Criticality", "Requirements", "Mode Switching"
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:>12} {:>13} {:>15}",
            row.works,
            row.heterogeneity.to_string(),
            row.criticality.to_string(),
            row.requirements.to_string(),
            row.mode_switching.to_string()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_is_the_only_full_row() {
        let rows = table_one();
        assert_eq!(rows.len(), 4);
        let cohort = rows.last().unwrap();
        assert_eq!(cohort.works, "CoHoRT");
        assert_eq!(cohort.heterogeneity, Support::Yes);
        assert_eq!(cohort.requirements, Support::Optimized);
        for row in &rows[..3] {
            assert_eq!(row.heterogeneity, Support::No);
            assert_eq!(row.mode_switching, Support::No);
        }
    }

    #[test]
    fn rendering_contains_all_rows() {
        let table = render_table_one();
        assert!(table.contains("CoHoRT"));
        assert!(table.contains("PENDULUM"));
        assert!(table.contains("Optimized"));
        assert_eq!(table.lines().count(), 5);
    }
}
