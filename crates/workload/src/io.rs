//! Corpus and query-log persistence.
//!
//! Experiments should be re-runnable against a *frozen* dataset, not
//! just a seed: a reviewer can export the corpus a figure was produced
//! from, inspect it, and re-load it byte-identically. The format is a
//! deliberately boring tab-separated text file (no external parser
//! dependencies): one record per line, keywords comma-separated in the
//! last field.

use std::fmt::Display;
use std::io::{self, BufRead, Write};

use hyperdex_core::KeywordSet;

use crate::corpus::Corpus;
use crate::queries::QueryLog;
use crate::records::WebsiteRecord;

/// Writes a corpus as TSV: `id \t title \t url \t category \t
/// description \t kw1,kw2,...`.
///
/// # Errors
///
/// Returns `InvalidInput`, naming the record, for a keyword holding a
/// comma or whitespace ([`read_corpus`] would split it); every record
/// before it is written. Propagates I/O errors from the writer.
pub fn write_corpus<W: Write>(corpus: &Corpus, mut out: W) -> io::Result<()> {
    for r in corpus.records() {
        let kw = keyword_list(&r.keywords, "record", r.id)?;
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            r.id,
            sanitize(&r.title),
            sanitize(&r.url),
            sanitize(&r.category),
            sanitize(&r.description),
            kw
        )?;
    }
    Ok(())
}

/// Reads a corpus previously written by [`write_corpus`].
///
/// # Errors
///
/// Returns `InvalidData` for malformed lines and propagates reader
/// errors.
pub fn read_corpus<R: BufRead>(input: R) -> io::Result<Corpus> {
    let mut records = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 6 {
            return Err(bad_line(lineno, "expected 6 tab-separated fields"));
        }
        let id: u64 = fields[0]
            .parse()
            .map_err(|_| bad_line(lineno, "bad record id"))?;
        let keywords =
            KeywordSet::parse(fields[5]).map_err(|_| bad_line(lineno, "bad keyword list"))?;
        if keywords.is_empty() {
            return Err(bad_line(lineno, "record without keywords"));
        }
        records.push(WebsiteRecord {
            id,
            title: fields[1].to_owned(),
            url: fields[2].to_owned(),
            category: fields[3].to_owned(),
            description: fields[4].to_owned(),
            keywords,
        });
    }
    Ok(Corpus::from_records(records))
}

/// Writes a query log: one query per line, keywords comma-separated,
/// in arrival order.
///
/// # Errors
///
/// Returns `InvalidInput`, naming the query, for a keyword holding a
/// comma or whitespace ([`read_query_log`] would split it); every query
/// before it is written. Propagates I/O errors from the writer.
pub fn write_query_log<W: Write>(log: &QueryLog, mut out: W) -> io::Result<()> {
    for (i, q) in log.iter().enumerate() {
        writeln!(out, "{}", keyword_list(q, "query", i)?)?;
    }
    Ok(())
}

/// Reads a query log written by [`write_query_log`].
///
/// # Errors
///
/// Returns `InvalidData` for unparsable lines and propagates reader
/// errors.
pub fn read_query_log<R: BufRead>(input: R) -> io::Result<QueryLog> {
    let mut queries = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let set = KeywordSet::parse(&line).map_err(|_| bad_line(lineno, "bad query keywords"))?;
        if set.is_empty() {
            return Err(bad_line(lineno, "empty query"));
        }
        queries.push(set);
    }
    Ok(QueryLog::from_queries(queries))
}

/// The keywords joined by commas — unless one holds a separator
/// [`KeywordSet::parse`] splits on: then an error naming `{what} {n}`.
fn keyword_list(keywords: &KeywordSet, what: &str, n: impl Display) -> io::Result<String> {
    let kw: Vec<&str> = keywords.iter().map(|k| k.as_str()).collect();
    match kw
        .iter()
        .find(|k| k.contains(|c: char| c == ',' || c.is_whitespace()))
    {
        Some(bad) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{what} {n}: keyword {bad:?} holds a separator"),
        )),
        None => Ok(kw.join(",")),
    }
}

/// Replaces tabs/newlines so free-text fields cannot break the format.
fn sanitize(field: &str) -> String {
    field.replace(['\t', '\n', '\r'], " ")
}

fn bad_line(lineno: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {}: {what}", lineno + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::queries::QueryLogConfig;
    use hyperdex_core::Keyword;

    #[test]
    fn corpus_roundtrip() {
        let corpus = Corpus::generate(&CorpusConfig::small_test().with_objects(200), 3);
        let mut buf = Vec::new();
        write_corpus(&corpus, &mut buf).unwrap();
        let loaded = read_corpus(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), corpus.len());
        assert_eq!(loaded.records(), corpus.records());
    }

    #[test]
    fn query_log_roundtrip() {
        let corpus = Corpus::generate(&CorpusConfig::small_test(), 3);
        let log = QueryLog::generate(&QueryLogConfig::small_test().with_queries(500), &corpus, 4);
        let mut buf = Vec::new();
        write_query_log(&log, &mut buf).unwrap();
        let loaded = read_query_log(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), log.len());
        assert!(loaded.iter().eq(log.iter()));
    }

    #[test]
    fn malformed_corpus_lines_rejected() {
        assert!(read_corpus("not-tsv".as_bytes()).is_err());
        assert!(
            read_corpus("x\ta\tb\tc\td\tkw".as_bytes()).is_err(),
            "bad id"
        );
        assert!(
            read_corpus("1\ta\tb\tc\td\t \n".as_bytes()).is_err(),
            "empty keywords"
        );
    }

    #[test]
    fn blank_lines_skipped() {
        let corpus = read_corpus("\n1\tt\tu\tc\td\ta,b\n\n".as_bytes()).unwrap();
        assert_eq!(corpus.len(), 1);
        let log = read_query_log("\na b\n\n".as_bytes()).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn keywords_holding_a_separator_are_refused_not_split() {
        for bad in ["hip hop", "tab\there", "line\nbreak", "a,b"] {
            let keywords: KeywordSet = [Keyword::new(bad).unwrap()].into_iter().collect();
            let mut records = Corpus::generate(&CorpusConfig::small_test().with_objects(3), 3)
                .records()
                .to_vec();
            records[2].keywords = keywords.clone();
            let mut buf = Vec::new();
            let err = write_corpus(&Corpus::from_records(records), &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("record 2"), "{err}");
            assert_eq!(read_corpus(buf.as_slice()).unwrap().len(), 2, "{bad:?}");

            let log = QueryLog::from_queries(vec![keywords]);
            let err = write_query_log(&log, &mut Vec::new()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("query 0"), "{err}");
        }
    }

    #[test]
    fn sanitization_keeps_format_parseable() {
        let mut corpus = Corpus::generate(&CorpusConfig::small_test().with_objects(1), 3);
        // Corrupt a free-text field with a tab via from_records.
        let mut records = corpus.records().to_vec();
        records[0].title = "evil\ttitle\nwith newline".into();
        corpus = Corpus::from_records(records);
        let mut buf = Vec::new();
        write_corpus(&corpus, &mut buf).unwrap();
        let loaded = read_corpus(buf.as_slice()).unwrap();
        assert_eq!(loaded.records()[0].title, "evil title with newline");
    }
}
