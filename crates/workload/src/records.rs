//! Website records shaped like the paper's Table 1.
//!
//! Each PCHome record carries six fields: ID, Title, URL, Category,
//! Description, and Keyword. Only the keyword set participates in
//! indexing; the other fields exist so examples and Table 1 output look
//! like the original data.

use hyperdex_core::{KeywordSet, ObjectId};

/// One website directory record (Table 1 schema).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WebsiteRecord {
    /// Record id (also the DHT object id).
    pub id: u64,
    /// Site title.
    pub title: String,
    /// Site URL.
    pub url: String,
    /// PCHome-style numeric category path.
    pub category: String,
    /// Editor-written description.
    pub description: String,
    /// The keyword set used for indexing.
    pub keywords: KeywordSet,
}

impl WebsiteRecord {
    /// The DHT object id for this record.
    pub fn object_id(&self) -> ObjectId {
        ObjectId::from_raw(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> WebsiteRecord {
        WebsiteRecord {
            id: 11,
            title: "Hinet".into(),
            url: "http://www.hinet.net".into(),
            category: "0818013020".into(),
            description: "Largest ISP in Taiwan".into(),
            keywords: KeywordSet::parse("ISP, telecommunication, network, download").unwrap(),
        }
    }

    #[test]
    fn object_id_derives_from_record_id() {
        assert_eq!(record().object_id(), ObjectId::from_raw(11));
    }
}
