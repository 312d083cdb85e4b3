//! Website records shaped like the paper's Table 1.
//!
//! Each PCHome record carries six fields: ID, Title, URL, Category,
//! Description, and Keyword. Only the keyword set participates in
//! indexing, so a generated record holds its id and its keyword set
//! alone (24 bytes). The four text fields are synthetic functions of
//! the id, built when called — only Table 1's rows read them.

use hyperdex_core::{KeywordSet, ObjectId};

/// One website directory record (Table 1 schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebsiteRecord {
    /// Record id (also the DHT object id).
    pub id: u64,
    /// The keyword set used for indexing.
    pub keywords: KeywordSet,
}

// A corpus is a vector of these: pinned so a field added back shows.
const _: () = assert!(std::mem::size_of::<WebsiteRecord>() == 24);

impl WebsiteRecord {
    /// The DHT object id for this record.
    pub fn object_id(&self) -> ObjectId {
        ObjectId::from_raw(self.id)
    }

    /// Site title.
    pub fn title(&self) -> String {
        format!("Site {}", self.id)
    }

    /// Site URL.
    pub fn url(&self) -> String {
        format!("http://site{}.example", self.id)
    }

    /// PCHome-style numeric category path.
    pub fn category(&self) -> String {
        format!("{:010}", self.id % 9_999_999)
    }

    /// Editor-written description.
    pub fn description(&self) -> String {
        format!("Synthetic directory record {}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> WebsiteRecord {
        WebsiteRecord {
            id: 11,
            keywords: KeywordSet::parse("ISP, telecommunication, network, download").unwrap(),
        }
    }

    #[test]
    fn object_id_derives_from_record_id() {
        assert_eq!(record().object_id(), ObjectId::from_raw(11));
    }

    #[test]
    fn text_fields_derive_from_the_id() {
        let r = record();
        assert_eq!(r.title(), "Site 11");
        assert_eq!(r.url(), "http://site11.example");
        assert_eq!(r.category(), "0000000011");
        assert_eq!(r.description(), "Synthetic directory record 11");
        let wrapped = WebsiteRecord {
            id: 10_000_000,
            ..r
        };
        assert_eq!(wrapped.category(), "0000000001", "the id modulo 9,999,999");
    }
}
