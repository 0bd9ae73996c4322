//! A DNS server application serving a zone over UDP port 53 — including
//! HIP resource records (RFC 5205), so HIP hosts can be discovered by
//! name instead of pre-configured HITs ("the HITs of remote hosts can be
//! preconfigured statically or, alternatively, they can be looked up
//! dynamically from the DNS", §II-B).

use netsim::dns::{DnsMessage, RecordType, Zone, DNS_PORT};
use netsim::host::{App, AppEvent, HostApi};
use netsim::packet::UdpData;

/// The DNS server app.
pub struct DnsServerApp {
    /// The zone being served (mutable: dynamic DNS re-registration).
    pub zone: Zone,
    /// Queries answered (diagnostics).
    pub served: u64,
    /// Queries for unknown names (diagnostics).
    pub nxdomain: u64,
}

impl DnsServerApp {
    /// Serves `zone`.
    pub fn new(zone: Zone) -> Self {
        DnsServerApp { zone, served: 0, nxdomain: 0 }
    }
}

impl App for DnsServerApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(api.udp_bind(DNS_PORT), "port 53 taken");
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        let AppEvent::UdpDatagram { src, src_port, data, .. } = ev else { return };
        let UdpData::Dns(DnsMessage::Query { id, name, rtype }) = data else { return };
        let answers = self.zone.lookup(&name, rtype);
        if answers.is_empty() {
            self.nxdomain += 1;
        } else {
            self.served += 1;
        }
        let resp = DnsMessage::Response { id, name, answers };
        api.udp_send(DNS_PORT, src, src_port, UdpData::Dns(resp));
    }
}

/// A one-shot resolver client (helper for apps and tests): sends one
/// query at start, stores the answers.
pub struct DnsLookupApp {
    server: std::net::IpAddr,
    name: String,
    rtype: RecordType,
    /// Received records (empty until the response arrives).
    pub answers: Vec<netsim::dns::Record>,
    /// Response received (distinguishes NXDOMAIN from no-reply).
    pub responded: bool,
}

impl DnsLookupApp {
    /// Queries `server` for `name` records of `rtype`.
    pub fn new(server: std::net::IpAddr, name: &str, rtype: RecordType) -> Self {
        DnsLookupApp { server, name: name.to_owned(), rtype, answers: Vec::new(), responded: false }
    }
}

impl App for DnsLookupApp {
    fn start(&mut self, api: &mut HostApi) {
        api.udp_bind(5353);
        let q = DnsMessage::Query { id: 1, name: self.name.clone(), rtype: self.rtype };
        api.udp_send(5353, self.server, DNS_PORT, UdpData::Dns(q));
    }

    fn on_event(&mut self, ev: AppEvent, _api: &mut HostApi) {
        if let AppEvent::UdpDatagram { data: UdpData::Dns(DnsMessage::Response { answers, .. }), .. } = ev {
            self.answers = answers;
            self.responded = true;
        }
    }
}
