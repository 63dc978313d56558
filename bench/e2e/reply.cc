#include "reply.h"

#include <charconv>
#include <unordered_set>

namespace adrec::e2e {

namespace {

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

/// The next line of `buf` from `pos` (CR stripped); false while no LF.
bool NextLine(std::string_view buf, size_t* pos, std::string_view* line) {
  const size_t nl = buf.find('\n', *pos);
  if (nl == std::string_view::npos) return false;
  size_t end = nl;
  if (end > *pos && buf[end - 1] == '\r') --end;
  *line = buf.substr(*pos, end - *pos);
  *pos = nl + 1;
  return true;
}

template <typename T>
bool ParseNumber(std::string_view s, T* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// "<tag> <id> <score>".
bool ParseItem(std::string_view line, std::string_view tag,
               std::pair<uint32_t, double>* item) {
  if (!StartsWith(line, tag) || line.size() <= tag.size() ||
      line[tag.size()] != ' ') {
    return false;
  }
  line.remove_prefix(tag.size() + 1);
  const size_t space = line.find(' ');
  if (space == std::string_view::npos) return false;
  return ParseNumber(line.substr(0, space), &item->first) &&
         ParseNumber(line.substr(space + 1), &item->second);
}

}  // namespace

size_t TakeReply(std::string_view buf, Reply* out) {
  size_t pos = 0;
  std::string_view head;
  if (!NextLine(buf, &pos, &head)) return 0;
  out->head.assign(head);
  out->items.clear();
  if (head == "OK") {
    out->kind = Reply::Kind::kOk;
    return pos;
  }
  if (head == "NOT_FOUND" || head == "READONLY" ||
      StartsWith(head, "CLIENT_ERROR") || StartsWith(head, "SERVER_ERROR")) {
    out->kind = Reply::Kind::kFailure;
    return pos;
  }
  const bool ads = StartsWith(head, "ADS ");
  if (!ads && !StartsWith(head, "USERS ")) {
    out->kind = Reply::Kind::kMalformed;
    return pos;
  }
  size_t count = 0;
  bool ok = ParseNumber(head.substr(ads ? 4 : 6), &count);
  const std::string_view tag = ads ? "AD" : "USER";
  for (std::string_view line;;) {
    if (!NextLine(buf, &pos, &line)) return 0;
    if (line == "END") break;
    std::pair<uint32_t, double> item;
    ok = ParseItem(line, tag, &item) && ok;
    out->items.push_back(item);
  }
  out->kind = ok && out->items.size() == count ? Reply::Kind::kList
                                                : Reply::Kind::kMalformed;
  return pos;
}

std::string CheckShape(const Op& op, const Reply& reply) {
  if (reply.kind == Reply::Kind::kFailure) return "";
  const bool list = op.kind == OpKind::kTopK || op.kind == OpKind::kMatch;
  if (!list) {
    return reply.kind == Reply::Kind::kOk ? "" : "want OK";
  }
  if (reply.kind != Reply::Kind::kList ||
      StartsWith(reply.head, "ADS ") != (op.kind == OpKind::kTopK)) {
    return op.kind == OpKind::kTopK ? "want an ADS list" : "want a USERS list";
  }
  if (op.kind == OpKind::kTopK && reply.items.size() > op.k) {
    return "more than k ads";
  }
  std::unordered_set<uint32_t> seen;
  for (size_t i = 0; i < reply.items.size(); ++i) {
    if (!seen.insert(reply.items[i].first).second) return "repeated id";
    if (i > 0 && reply.items[i].second > reply.items[i - 1].second) {
      return "scores increase down the list";
    }
  }
  return "";
}

}  // namespace adrec::e2e
