#ifndef OSRS_TEXT_PORTER_STEMMER_H_
#define OSRS_TEXT_PORTER_STEMMER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace osrs {

/// Classic Porter (1980) suffix-stripping stemmer for English.
///
/// Used to normalize both the ontology term lexicon and review tokens so
/// the dictionary extractor matches morphological variants ("charging" ↔
/// "charge"). Input must be lowercase ASCII; words of length <= 2 are
/// returned unchanged, as in the original algorithm.
std::string PorterStem(std::string_view word);

/// A direct-mapped memo in front of PorterStem for the token-view queries
/// of the extraction layer, where review text repeats a small vocabulary:
/// each word hashes to one of kSlots slots holding one (word, stem) pair,
/// and a word whose slot holds another word is stemmed and takes the slot
/// over. Words longer than kMaxWordLength bypass the memo, so it stays at
/// kSlots short entries whatever the vocabulary of the input.
///
/// PorterStem is a pure function, so a memo's answers never depend on who
/// filled it: one memo per thread serves every extractor on that thread
/// without a lock.
class StemMemo {
 public:
  static constexpr size_t kSlots = 4096;
  static constexpr size_t kMaxWordLength = 23;
  static_assert((kSlots & (kSlots - 1)) == 0, "slots are picked by mask");
  static_assert(kMaxWordLength <= 255, "lengths are stored in a byte");

  StemMemo();

  /// PorterStem(word). The view is valid until the next Stem call on this
  /// memo.
  std::string_view Stem(std::string_view word);

  /// The slot `word` maps to (meaningful for words of at most
  /// kMaxWordLength bytes).
  static size_t SlotOf(std::string_view word);

  /// The calling thread's memo.
  static StemMemo& ForThisThread();

 private:
  struct Slot {
    uint8_t word_length = 0;  // an empty slot maps "" to ""
    uint8_t stem_length = 0;
    char word[kMaxWordLength];
    char stem[kMaxWordLength];
  };

  std::unique_ptr<Slot[]> slots_;
  std::string long_stem_;  // the stem of the last word that bypassed
};

}  // namespace osrs

#endif  // OSRS_TEXT_PORTER_STEMMER_H_
