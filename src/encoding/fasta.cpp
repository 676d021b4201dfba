#include "encoding/fasta.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>

namespace swbpbc::encoding {

namespace {

util::Status parse_error_at(std::size_t line, const std::string& what) {
  return util::Status::parse_error("FASTA line " + std::to_string(line) +
                                   ": " + what);
}

}  // namespace

util::Expected<std::vector<FastaRecord>> try_read_fasta(std::istream& in) {
  std::vector<FastaRecord> records;
  std::string line;
  std::size_t line_no = 0;
  std::size_t header_line = 0;  // line of the current record's header
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line.front() == '>') {
      if (!records.empty() && records.back().sequence.empty())
        return parse_error_at(header_line, "record '" + records.back().name +
                                               "' has no sequence");
      std::string name = line.substr(1);
      if (name.empty()) return parse_error_at(line_no, "empty record name");
      records.push_back(FastaRecord{std::move(name), {}});
      header_line = line_no;
      continue;
    }
    if (records.empty())
      return parse_error_at(line_no, "sequence data before any header");
    Sequence& seq = records.back().sequence;
    for (std::size_t col = 0; col < line.size(); ++col) {
      Base b;
      if (!try_base_from_char(line[col], b))
        return parse_error_at(
            line_no, "column " + std::to_string(col + 1) +
                         ": invalid character '" + line[col] + "'");
      seq.push_back(code(b));
    }
  }
  if (!records.empty() && records.back().sequence.empty())
    return parse_error_at(header_line, "record '" + records.back().name +
                                           "' has no sequence");
  return records;
}

util::Expected<std::vector<FastaRecord>> try_read_fasta_string(
    const std::string& text) {
  std::istringstream in(text);
  return try_read_fasta(in);
}

std::vector<FastaRecord> read_fasta(std::istream& in) {
  return try_read_fasta(in).value();
}

std::vector<FastaRecord> read_fasta_string(const std::string& text) {
  return try_read_fasta_string(text).value();
}

void write_fasta(std::ostream& out, const std::vector<FastaRecord>& records,
                 std::size_t width) {
  for (const auto& rec : records) {
    out << '>' << rec.name << '\n';
    for (std::size_t i = 0; i < rec.sequence.size(); i += width) {
      const std::size_t hi = std::min(i + width, rec.sequence.size());
      for (std::size_t j = i; j < hi; ++j)
        out << to_char(Base{rec.sequence[j]});
      out << '\n';
    }
  }
}

}  // namespace swbpbc::encoding
