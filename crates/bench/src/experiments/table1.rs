//! Table 1: sample website records.
//!
//! The paper shows two records of the PCHome directory to fix the data
//! schema (ID / Title / URL / Category / Description / Keyword). We
//! print sample records from the synthetic corpus in the same shape.

use crate::report::{section, Table};
use crate::SharedContext;

/// Prints Table 1's analogue: the first `count` synthetic records.
pub fn run(ctx: &SharedContext, count: usize) {
    section("Table 1 — sample website records (synthetic corpus)");
    let mut table = Table::new(["ID", "Title", "URL", "Category", "Description", "Keyword"]);
    for record in ctx.corpus.records().iter().take(count) {
        let kw: Vec<&str> = record.keywords.iter().map(|k| k.as_str()).collect();
        table.row([
            record.id.to_string(),
            record.title(),
            record.url(),
            record.category(),
            record.description(),
            kw.join(", "),
        ]);
    }
    print!("{}", table.to_markdown());
    println!(
        "\n(original: 131,180 hand-edited PCHome records; here: {} synthetic records, \
         same schema and keyword statistics)",
        ctx.corpus.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn runs_without_panic() {
        let ctx = SharedContext::new(Scale::Small, 1);
        run(&ctx, 2);
    }
}
